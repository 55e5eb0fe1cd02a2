package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"dbvirt/internal/obs"
	"dbvirt/internal/placement"
	"dbvirt/internal/vm"
)

// Fleet-placement request bounds, in the same spirit as the what-if
// bounds: anything beyond them is abusive, rejected with 400 up front.
const (
	maxPlacementTenants = 4096
	maxPlacementCount   = 1024
	maxPlacementEvents  = 64
)

// PlacementTenantRef names one fleet tenant (or, with count > 1, a block
// of identical tenants) over the server's built-in workloads. The
// underlying specs are interned exactly like what-if workloads, so the
// placement solver's per-spec feature memo and the what-if model's cost
// atoms concentrate across tenants and requests.
type PlacementTenantRef struct {
	WorkloadRef
	// Count expands this reference into count tenants named
	// "<name>-0000".."<name>-NNNN" (default 1, which uses the name as-is).
	Count int `json:"count,omitempty"`
}

// MachineCapsDTO is the per-machine capacity envelope of a placement
// request; zero-valued capacities are unlimited.
type MachineCapsDTO struct {
	CPU        float64 `json:"cpu,omitempty"`
	Memory     float64 `json:"memory,omitempty"`
	IO         float64 `json:"io,omitempty"`
	MaxTenants int     `json:"max_tenants,omitempty"`
}

// PlacementRequest asks for a from-scratch fleet placement: cluster the
// tenants into workload classes, bin-pack them onto machines, and price
// every machine with the single-machine solvers. A successful solve
// becomes the server's current placement, the target of subsequent
// /v1/placement/events calls and what GET /v1/placement returns.
type PlacementRequest struct {
	Tenants   []PlacementTenantRef `json:"tenants"`
	Machine   *MachineCapsDTO      `json:"machine,omitempty"`
	Threshold float64              `json:"threshold,omitempty"` // default 0.1
	Step      float64              `json:"step,omitempty"`      // default 0.125
	Resources []string             `json:"resources,omitempty"` // default ["cpu"]
	Algo      string               `json:"algo,omitempty"`      // greedy (default) or dp
	Orders    int                  `json:"orders,omitempty"`    // default 3
	Seed      uint64               `json:"seed,omitempty"`
	TimeoutMS int64                `json:"timeout_ms,omitempty"`
}

func (r *PlacementRequest) validate() error {
	if len(r.Tenants) == 0 {
		return fmt.Errorf("no tenants")
	}
	total := 0
	for i, t := range r.Tenants {
		if err := validateRef(t.WorkloadRef); err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
		if t.Count < 0 || t.Count > maxPlacementCount {
			return fmt.Errorf("tenant %d: count %d out of range [0, %d]", i, t.Count, maxPlacementCount)
		}
		n := t.Count
		if n == 0 {
			n = 1
		}
		total += n
	}
	if total > maxPlacementTenants {
		return fmt.Errorf("too many tenants (%d > %d)", total, maxPlacementTenants)
	}
	switch r.Algo {
	case "", "greedy", "dp":
	default:
		return fmt.Errorf("unknown algo %q (want greedy or dp)", r.Algo)
	}
	for _, res := range r.Resources {
		if _, err := vm.ParseResource(res); err != nil {
			return err
		}
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms")
	}
	// Threshold, step, orders, and machine-cap ranges are owned by
	// placement.Config.validate; NewSolver failures map to 400 below.
	return nil
}

// coalesceKey canonicalizes a placement request for in-flight
// coalescing: its tenant list followed by its configKey. Identical fleets
// solving concurrently share one computation; the placement memo is NOT
// consulted across time because a successful solve also replaces the
// server's current placement state.
func (r *PlacementRequest) coalesceKey() string {
	var b strings.Builder
	for _, t := range r.Tenants {
		n := t.Count
		if n == 0 {
			n = 1
		}
		fmt.Fprintf(&b, "t:%s|n=%s|c=%d;", refKey(t.WorkloadRef), t.Name, n)
	}
	b.WriteString(r.configKey())
	return b.String()
}

// configKey canonicalizes everything of the request that config() maps
// onto the solver: requests with equal keys are served by one
// placement.Solver and so share its feature and machine-solve memos.
func (r *PlacementRequest) configKey() string {
	var b strings.Builder
	if m := r.Machine; m != nil {
		fmt.Fprintf(&b, "m:%.9f,%.9f,%.9f,%d;", m.CPU, m.Memory, m.IO, m.MaxTenants)
	}
	fmt.Fprintf(&b, "th=%.9f|st=%.9f|res=%s|algo=%s|k=%d|seed=%d",
		r.Threshold, r.Step, strings.Join(r.Resources, ","), r.Algo, r.Orders, r.Seed)
	return b.String()
}

// config maps the request onto a placement.Config (zero fields defer to
// the solver's defaults).
func (r *PlacementRequest) config(parallelism int) placement.Config {
	cfg := placement.Config{
		Threshold:   r.Threshold,
		Step:        r.Step,
		Algo:        r.Algo,
		Orders:      r.Orders,
		Seed:        r.Seed,
		Parallelism: parallelism,
	}
	if m := r.Machine; m != nil {
		cfg.Machine = placement.MachineCaps{CPU: m.CPU, Memory: m.Memory, IO: m.IO, MaxTenants: m.MaxTenants}
	}
	for _, res := range r.Resources {
		pr, _ := vm.ParseResource(res) // validated above
		cfg.Resources = append(cfg.Resources, pr)
	}
	return cfg
}

// PlacementEventDTO is one fleet change: "arrive" and "drift" carry a
// tenant reference (count must be absent or 1 — events are per tenant),
// "leave" carries the tenant name.
type PlacementEventDTO struct {
	Type   string              `json:"type"`
	Name   string              `json:"name,omitempty"`
	Tenant *PlacementTenantRef `json:"tenant,omitempty"`
}

// PlacementEventsRequest folds fleet events into the server's current
// placement with an incremental re-solve.
type PlacementEventsRequest struct {
	Events    []PlacementEventDTO `json:"events"`
	TimeoutMS int64               `json:"timeout_ms,omitempty"`
}

func (r *PlacementEventsRequest) validate() error {
	if len(r.Events) == 0 {
		return fmt.Errorf("no events")
	}
	if len(r.Events) > maxPlacementEvents {
		return fmt.Errorf("too many events (%d > %d)", len(r.Events), maxPlacementEvents)
	}
	for i, ev := range r.Events {
		et, err := placement.ParseEventType(ev.Type)
		if err != nil {
			return fmt.Errorf("event %d: unknown type %q (want arrive, leave, or drift)", i, ev.Type)
		}
		switch et {
		case placement.Leave:
			if strings.TrimSpace(ev.Name) == "" && ev.Tenant == nil {
				return fmt.Errorf("event %d: leave needs a tenant name", i)
			}
		default:
			if ev.Tenant == nil {
				return fmt.Errorf("event %d: %s needs a tenant", i, et)
			}
			if err := validateRef(ev.Tenant.WorkloadRef); err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			if ev.Tenant.Count > 1 {
				return fmt.Errorf("event %d: count %d not allowed on events (one tenant per event)", i, ev.Tenant.Count)
			}
		}
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms")
	}
	return nil
}

// appendPlacementResponse appends the response of a verified placement
// (its schema is PlacementResponse in the package's tests): the full
// placement byte for byte as encoding/json marshals that struct (events
// and version omitted when zero, no trailing newline),
// or with delta its events-response form (Placement.AppendDeltaJSON).
func appendPlacementResponse(dst []byte, pl *placement.Placement, events, version int, delta bool) ([]byte, error) {
	dst = append(dst, `{"total_cost":`...)
	dst, err := placement.AppendFloat(dst, pl.TotalCost)
	if err != nil {
		return nil, err
	}
	dst = append(dst, `,"order":`...)
	dst = strconv.AppendInt(dst, int64(pl.Order), 10)
	dst = append(dst, `,"verified":true,`...)
	if events != 0 {
		dst = append(dst, `"events":`...)
		dst = strconv.AppendInt(dst, int64(events), 10)
		dst = append(dst, ',')
	}
	if version != 0 {
		dst = append(dst, `"version":`...)
		dst = strconv.AppendInt(dst, int64(version), 10)
		dst = append(dst, ',')
	}
	if delta {
		dst, err = pl.AppendDeltaJSON(dst)
	} else {
		dst, err = pl.AppendJSON(dst)
	}
	if err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// placementState is the server's current fleet placement: one solver
// (owning the feature and machine-solve memos), the configKey it was
// built for, and the latest solved placement. The solver lives as long as
// its configuration — a POST /v1/placement carrying the same configKey
// re-solves on it, so shapes any earlier placement or event priced are
// memo hits — and is replaced only by a successful solve under another.
// The mutex serializes event application against replacement; fresh
// solves build their placement outside the lock and swap it in.
type placementState struct {
	mu     sync.Mutex
	cfgKey string
	solver *placement.Solver
	pl     *placement.Placement
	// version counts the passes applied to pl since it was installed.
	version int
	// evBuf holds the last events response; the next one is encoded over
	// it (events are applied, encoded and written under mu). fullLen is
	// the length of the last full body, which sizes the next one.
	evBuf   []byte
	fullLen int
}

// solverFor returns the current solver if it was built for cfgKey.
func (ps *placementState) solverFor(cfgKey string) *placement.Solver {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.solver != nil && ps.cfgKey == cfgKey {
		return ps.solver
	}
	return nil
}

// install makes pl the current placement, at version 0, and returns its
// response body.
func (ps *placementState) install(cfgKey string, solver *placement.Solver, pl *placement.Placement) ([]byte, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.cfgKey, ps.solver, ps.pl, ps.version = cfgKey, solver, pl, 0
	return ps.fullBody()
}

// fullBody encodes the current placement in full, with its version; the
// caller holds mu (an event updates the placement in place).
func (ps *placementState) fullBody() ([]byte, error) {
	body, err := appendPlacementResponse(make([]byte, 0, ps.fullLen+ps.fullLen/8), ps.pl, 0, ps.version, false)
	if err != nil {
		return nil, err
	}
	ps.fullLen = len(body)
	return body, nil
}

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	var req PlacementRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	sp := obs.StartSpan("server.placement")
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		sc.Annotate(sp)
	}
	defer sp.End()

	body, err := s.plCol.inflight(ctx, req.coalesceKey(), func() ([]byte, error) {
		release, ok := s.lim.acquire(ctx)
		if !ok {
			return nil, errTooBusy
		}
		csp := sp.Child("server.placement.compute")
		defer csp.End()
		defer release()
		return s.computePlacement(ctx, &req)
	})
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// computePlacement solves the fleet from scratch — on the current solver
// when the request carries its configuration, so only the memos are warm
// — verifies it, installs it as the server's current placement, and
// marshals the response.
func (s *Server) computePlacement(ctx context.Context, req *PlacementRequest) ([]byte, error) {
	tenants, err := s.resolvePlacementTenants(req.Tenants)
	if err != nil {
		return nil, badRequestError{err}
	}
	cfgKey := req.configKey()
	solver := s.plState.solverFor(cfgKey)
	if solver == nil {
		solver, err = placement.NewSolver(req.config(s.cfg.Parallelism), s.cfg.Model)
		if err != nil {
			return nil, badRequestError{err}
		}
	}
	pl, err := solver.Solve(ctx, tenants)
	switch {
	case errors.Is(err, placement.ErrDuplicateName):
		return nil, badRequestError{err}
	case err != nil:
		return nil, err
	}
	if err := pl.Verify(ctx); err != nil {
		return nil, fmt.Errorf("placement verification failed: %w", err)
	}
	return s.plState.install(cfgKey, solver, pl)
}

func (s *Server) handlePlacementEvents(w http.ResponseWriter, r *http.Request) {
	var req PlacementEventsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	sp := obs.StartSpan("server.placement.events")
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		sc.Annotate(sp)
	}
	defer sp.End()

	release, ok := s.lim.acquire(ctx)
	if !ok {
		s.writeComputeError(w, errTooBusy)
		return
	}
	defer release()

	evs, err := s.resolvePlacementEvents(req.Events)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.plState.mu.Lock()
	defer s.plState.mu.Unlock()
	if s.plState.pl == nil {
		writeError(w, http.StatusConflict, "no placement loaded (POST /v1/placement first)")
		return
	}
	stats, err := s.plState.pl.Apply(ctx, evs...)
	switch {
	case placement.IsEventError(err):
		writeError(w, http.StatusBadRequest, err.Error())
		return
	case err != nil:
		s.writeComputeError(w, err)
		return
	}
	// The pass is applied whether or not it verifies: a failed one still
	// takes its version, so the client sees the gap and resyncs.
	s.plState.version++
	if err := s.plState.pl.Verify(ctx); err != nil {
		s.writeComputeError(w, fmt.Errorf("placement verification failed: %w", err))
		return
	}
	// The delta reads the replaced placement from Apply's spare buffers,
	// so it is encoded here, before any other pass can run.
	body, err := appendPlacementResponse(s.plState.evBuf[:0], s.plState.pl, stats.Events, s.plState.version, true)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	body = append(body, '\n') // as json.Encoder ends a value
	s.plState.evBuf = body
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handlePlacementGet answers with the current placement in full, at its
// version: what a client that missed a version resyncs from.
func (s *Server) handlePlacementGet(w http.ResponseWriter, r *http.Request) {
	s.plState.mu.Lock()
	if s.plState.pl == nil {
		s.plState.mu.Unlock()
		writeError(w, http.StatusConflict, "no placement loaded (POST /v1/placement first)")
		return
	}
	body, err := s.plState.fullBody()
	s.plState.mu.Unlock()
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// plStats exposes the current placement's headline stats (tests and the
// drain path use it to observe state without an HTTP round trip).
func (s *Server) plStats() (placement.SolveStats, bool) {
	s.plState.mu.Lock()
	defer s.plState.mu.Unlock()
	if s.plState.pl == nil {
		return placement.SolveStats{}, false
	}
	return s.plState.pl.Stats, true
}

// resolvePlacementTenants expands tenant references (count blocks
// included) into placement tenants over interned specs.
func (s *Server) resolvePlacementTenants(refs []PlacementTenantRef) ([]*placement.Tenant, error) {
	var tenants []*placement.Tenant
	for _, ref := range refs {
		spec, err := s.spec(ref.WorkloadRef)
		if err != nil {
			return nil, err
		}
		base := tenantName(ref.WorkloadRef)
		n := ref.Count
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			name := base
			if ref.Count > 1 {
				name = fmt.Sprintf("%s-%04d", base, j)
			}
			tenants = append(tenants, &placement.Tenant{Name: name, Spec: spec})
		}
	}
	return tenants, nil
}

// resolvePlacementEvents maps event DTOs onto placement events,
// resolving tenant payloads to interned specs.
func (s *Server) resolvePlacementEvents(evs []PlacementEventDTO) ([]placement.Event, error) {
	out := make([]placement.Event, len(evs))
	for i, ev := range evs {
		et, err := placement.ParseEventType(ev.Type)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		e := placement.Event{Type: et, Name: strings.TrimSpace(ev.Name)}
		if ev.Tenant != nil && et != placement.Leave {
			spec, err := s.spec(ev.Tenant.WorkloadRef)
			if err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			e.Tenant = &placement.Tenant{Name: tenantName(ev.Tenant.WorkloadRef), Spec: spec}
		}
		if et == placement.Leave && e.Name == "" && ev.Tenant != nil {
			e.Name = tenantName(ev.Tenant.WorkloadRef)
		}
		out[i] = e
	}
	return out, nil
}
