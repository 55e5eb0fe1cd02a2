package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbvirt/internal/autotune"
	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/obs"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

var (
	mAdmissionReject = obs.Global.Counter("server.admission.rejected")
	mDrainStarted    = obs.Global.Counter("server.drain.started")
	gInflight        = obs.Global.Gauge("server.http.inflight")
	gQueueDepth      = obs.Global.Gauge("server.queue.depth")
)

// Config parameterizes a Server. The zero value is completed by New with
// the defaults noted per field.
type Config struct {
	// Env is the environment whose databases the workloads run on
	// (default workload.QuickEnv(); tests inject a prebuilt one so several
	// servers share databases). The server reads its DB and Machine only
	// and never writes it.
	Env *workload.Env
	// Grid answers calibration lookups and backs the default what-if
	// model. Required unless both Model is set and /v1/calibration/grid
	// may 404.
	Grid *calibration.Grid
	// Model overrides the cost model (tests inject slow or failing
	// models). Default: WhatIfModel{Grid} itself. It memoizes below the
	// workload, per statement and parameter vector, so no request-level
	// cost memo sits in front of it: such a memo has to key on what a
	// request varies — weight, SLO, repeat count — none of which is cost
	// identity.
	Model core.CostModel
	// MaxInflight bounds concurrently executing what-if sweeps (leaders
	// only — coalesced joiners don't hold slots). Default GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds sweeps waiting for a slot; beyond it requests are
	// rejected with 429. Default 4*MaxInflight.
	MaxQueue int
	// JobWorkers is the solve worker-pool size (default 2).
	JobWorkers int
	// JobQueue bounds queued-but-not-running solve jobs (default 16);
	// beyond it submissions are rejected with 429.
	JobQueue int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// Parallelism is handed to the solvers; 0 means GOMAXPROCS.
	Parallelism int
	// Telemetry is the per-tenant workload-telemetry hub fed by every
	// what-if request. Default: a hub with default sketch/drift parameters
	// over the global registry.
	Telemetry *telemetry.Hub
	// RequestWindow is the total span of the sliding-window request
	// latency histogram exposed as server.http.window.seconds (default
	// 60s, split into 6 slots).
	RequestWindow time.Duration
	// Autotune, when set, runs the closed-loop autotuner over a managed
	// deployment of the named workloads (see AutotuneOptions); nil leaves
	// the /v1/autotune endpoints answering 404.
	Autotune *AutotuneOptions
}

const (
	// maxJobs bounds the retained job table; oldest terminal jobs are
	// evicted first.
	maxJobs = 1024
	// maxTimeout caps the timeout_ms a request may ask for.
	maxTimeout = 5 * time.Minute
	// retryAfter is the Retry-After hint, in seconds, of a 429 response.
	retryAfter = "1"
)

func (c *Config) applyDefaults() error {
	if c.Env == nil {
		c.Env = workload.QuickEnv()
	}
	if c.Model == nil {
		if c.Grid == nil {
			return fmt.Errorf("server: need a calibration grid (or an explicit model)")
		}
		c.Model = &core.WhatIfModel{Grid: c.Grid}
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueue <= 0 {
		c.JobQueue = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewHub(telemetry.Config{})
	}
	if c.RequestWindow <= 0 {
		c.RequestWindow = time.Minute
	}
	return nil
}

// Server is the vdtuned daemon: handlers, shared session state, and the
// drain machinery. Create with New, expose via Handler, stop with Drain.
type Server struct {
	cfg     Config
	col     *coalescer[whatIfAnswer]
	jobs    *jobManager
	lim     *limiter
	mux     *http.ServeMux
	started time.Time
	hWindow *obs.WindowedHistogram // sliding-window request latency

	// plCol coalesces identical in-flight placement solves only — no
	// completed-response memo, because a solve also replaces plState and
	// replaying stale bytes would desynchronize the two.
	plCol   *coalescer[[]byte]
	plState placementState

	// tuner is the closed-loop autotuner (nil unless Config.Autotune);
	// atStop cancels its background ticker, atDone closes when the ticker
	// goroutine has exited.
	tuner  *autotune.Loop
	atStop context.CancelFunc
	atDone chan struct{}

	draining atomic.Bool
	inflight sync.WaitGroup // tracked /v1/* requests, for drain
}

// New builds a Server from cfg (see Config for defaults).
func New(cfg Config) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		col:     newCoalescer[whatIfAnswer](),
		plCol:   newCoalescer[[]byte](),
		lim:     newLimiter(cfg.MaxInflight, cfg.MaxQueue),
		started: time.Now(),
		hWindow: obs.Global.Window("server.http.window.seconds", 6, cfg.RequestWindow/6),
	}
	s.jobs = newJobManager(cfg.JobWorkers, cfg.JobQueue, maxJobs, s.runSolve)
	if cfg.Autotune != nil {
		if err := s.initAutotune(cfg.Autotune); err != nil {
			return nil, err
		}
		if cfg.Autotune.Interval > 0 {
			ctx, cancel := context.WithCancel(context.Background())
			s.atStop = cancel
			s.atDone = make(chan struct{})
			go func() {
				defer close(s.atDone)
				s.tuner.Run(ctx, cfg.Autotune.Interval)
			}()
		}
	}
	s.routes()
	return s, nil
}

// Prewarm builds the databases and interned specs for the named queries
// ahead of traffic, so first requests don't pay the build.
func (s *Server) Prewarm(queries []string) error {
	for _, q := range queries {
		if _, err := s.spec(WorkloadRef{Query: q}); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/whatif", s.instrument("whatif", s.track(s.handleWhatIf)))
	s.mux.Handle("POST /v1/solve", s.instrument("solve", s.track(s.handleSolve)))
	s.mux.Handle("POST /v1/placement", s.instrument("placement", s.track(s.handlePlacement)))
	s.mux.Handle("GET /v1/placement", s.instrument("placement_get", s.handlePlacementGet))
	s.mux.Handle("POST /v1/placement/events", s.instrument("placement_events", s.track(s.handlePlacementEvents)))
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJobGet))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.instrument("jobs", s.track(s.handleJobCancel)))
	s.mux.Handle("GET /v1/calibration/grid", s.instrument("grid", s.handleGrid))
	s.mux.Handle("GET /v1/autotune/status", s.instrument("autotune_status", s.handleAutotuneStatus))
	s.mux.Handle("POST /v1/autotune/enable", s.instrument("autotune_toggle", s.track(s.handleAutotuneEnable)))
	s.mux.Handle("POST /v1/autotune/disable", s.instrument("autotune_toggle", s.track(s.handleAutotuneDisable)))
	s.mux.Handle("POST /v1/autotune/trigger", s.instrument("autotune_trigger", s.track(s.handleAutotuneTrigger)))
	s.mux.Handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", obs.HandleMetricsProm)
	s.mux.HandleFunc("GET /debug/metrics", obs.HandleMetricsJSON)
	s.mux.HandleFunc("GET /debug/flightrecorder", obs.HandleFlightRecorder)
	s.mux.HandleFunc("GET /debug/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// statusWriter captures the response status code for the flight
// recorder; an unset code means an implicit 200 from the first Write.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps a handler with the per-endpoint latency histogram and
// request counter (server.http.<route>.seconds / .count), the
// process-wide in-flight gauge and sliding-window latency histogram, W3C
// trace-context propagation (an incoming traceparent header is continued
// with a fresh span ID; absent or malformed ones start a new trace; the
// request's identity is echoed in the response traceparent header), and
// a flight-recorder entry per completed request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	count := obs.Global.Counter("server.http." + route + ".count")
	hist := obs.Global.Histogram("server.http." + route + ".seconds")
	var inflight atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count.Inc()
		gInflight.Set(float64(inflight.Add(1)))

		sc, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			sc = obs.NewSpanContext()
		} else {
			sc = sc.NewChild()
		}
		w.Header().Set("traceparent", sc.Traceparent())
		r = r.WithContext(obs.WithSpanContext(r.Context(), sc))
		sw := &statusWriter{ResponseWriter: w}

		start := time.Now()
		defer func() {
			dur := time.Since(start)
			hist.Observe(dur.Seconds())
			s.hWindow.Observe(dur.Seconds())
			gInflight.Set(float64(inflight.Add(-1)))
			obs.Flight.Record(obs.FlightRecord{
				Time:    start,
				TraceID: sc.TraceIDString(),
				SpanID:  sc.SpanIDString(),
				Method:  r.Method,
				Path:    r.URL.Path,
				Status:  sw.status(),
				Micros:  dur.Microseconds(),
			})
		}()
		h(sw, r)
	})
}

// track rejects work-accepting requests once draining and otherwise
// registers them with the drain wait group. Read-only endpoints (job
// polls, grid lookups, health, metrics) stay available during drain so
// clients can collect results.
func (s *Server) track(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "draining: not accepting new work")
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		h(w, r)
	}
}

// requestCtx derives the request's working context from its deadline
// parameters: timeoutMS if given (capped at maxTimeout), else the server
// default. The HTTP request context is the parent, so a disconnected
// client cancels the work.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		d = min(d, maxTimeout)
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req WhatIfRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	sp := obs.StartSpan("server.whatif")
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		sc.Annotate(sp)
	}
	defer sp.End()

	ans, err := s.col.do(ctx, req.coalesceKey(), func() (whatIfAnswer, error) {
		release, ok := s.lim.acquire(ctx)
		if !ok {
			return whatIfAnswer{}, errTooBusy
		}
		csp := sp.Child("server.whatif.compute")
		defer csp.End()
		defer release()
		return s.computeWhatIf(ctx, &req)
	})
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	s.recordWhatIf(&req, ans)
	w.Header().Set("Content-Type", "application/json")
	w.Write(ans.body)
}

// whatIfAnswer is what the coalescer keeps of one answered sweep: the
// marshaled response, and its specs and cost matrix for the telemetry of
// every request the entry answers. The coalesce key holds each position's
// query, repeat, weight and SLO, so those requests share the specs.
type whatIfAnswer struct {
	body  []byte
	specs []*core.WorkloadSpec
	costs [][]float64
}

// tenantName maps one workload reference onto its telemetry tenant: the
// caller-chosen display name when given, else the canonical QUERYxN
// identity — so unnamed traffic still aggregates sensibly per query.
func tenantName(ref WorkloadRef) string {
	if n := strings.TrimSpace(ref.Name); n != "" {
		return n
	}
	q, n := canonRef(ref)
	return fmt.Sprintf("%sx%d", q, n)
}

// recordWhatIf streams one answered what-if request into the per-tenant
// telemetry: every statement's normalized SQL into the workload sketch
// and the workload's predicted cost row into the reservoir. The specs and
// costs are the ones the response body was computed from, kept beside it
// in the coalescer's entry, so coalesced and memoized hits count as
// tenant traffic too and nobody resolves or decodes again.
func (s *Server) recordWhatIf(req *WhatIfRequest, ans whatIfAnswer) {
	for i, ref := range req.Workloads {
		ten := s.cfg.Telemetry.Tenant(tenantName(ref))
		for _, norm := range ans.specs[i].NormalizedStatements() {
			ten.ObserveQuery(norm)
		}
		ten.ObserveCosts(ans.costs[i])
	}
}

// computeWhatIf prices the request's cost matrix and encodes the
// response. The bytes are a deterministic function of the request, which
// is what entitles the coalescer to replay them for identical requests.
func (s *Server) computeWhatIf(ctx context.Context, req *WhatIfRequest) (whatIfAnswer, error) {
	specs, err := s.resolve(req.Workloads)
	if err != nil {
		return whatIfAnswer{}, badRequestError{err}
	}
	allocs := make([]vm.Shares, len(req.Allocations))
	for i, a := range req.Allocations {
		allocs[i] = a.shares()
	}
	costs, err := core.CostMatrix(ctx, s.cfg.Model, specs, allocs)
	if err != nil {
		return whatIfAnswer{}, err
	}
	body, err := json.Marshal(WhatIfResponse{Model: s.cfg.Model.Name(), Costs: costs})
	return whatIfAnswer{body: body, specs: specs, costs: costs}, err
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	req.applyDefaults()
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Resolve workloads synchronously so malformed problems fail with 400
	// here, not as a failed job later; this also prices the database
	// build before the job occupies a worker.
	if _, err := s.resolve(req.Workloads); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sc, _ := obs.SpanContextFrom(r.Context())
	j, err := s.jobs.submit(req, sc)
	switch {
	case errors.Is(err, ErrQueueFull):
		mAdmissionReject.Inc()
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "job queue full")
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(SolveAccepted{JobID: j.id})
}

// runSolve executes one queued job; it is the jobManager's run callback.
// The submitting request's trace context rides on the job, so the solve
// span joins the same distributed trace even though it runs on a worker
// goroutine long after the 202 was written.
func (s *Server) runSolve(ctx context.Context, j *job) (*SolveResult, error) {
	sp := obs.StartSpan("server.job.solve")
	j.sc.Annotate(sp)
	sp.SetArg("job_id", j.id)
	defer sp.End()
	specs, err := s.resolve(j.req.Workloads)
	if err != nil {
		return nil, err
	}
	resources, _ := j.req.resources() // validated on submit
	solve, _ := core.SolverNamed(j.req.Algo)
	problem := &core.Problem{
		Workloads:   specs,
		Resources:   resources,
		Step:        j.req.Step,
		Objective:   core.Objective{SLOPenalty: j.req.SLOPenalty},
		Parallelism: s.cfg.Parallelism,
	}
	res, err := solve(ctx, problem, s.cfg.Model)
	if err != nil {
		return nil, err
	}
	return solveResult(res), nil
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.jobs.cancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// GridResponse answers one calibration lookup: the parameter vector at
// the requested allocation, and whether it was an exact lattice point or
// a trilinear interpolation.
type GridResponse struct {
	Exact  bool             `json:"exact"`
	Params optimizer.Params `json:"params"`
	Shares SharesDTO        `json:"shares"`
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Grid == nil {
		writeError(w, http.StatusNotFound, "no calibration grid loaded")
		return
	}
	q := r.URL.Query()
	var sh SharesDTO
	for _, f := range []struct {
		name string
		dst  *float64
	}{{"cpu", &sh.CPU}, {"mem", &sh.Memory}, {"io", &sh.IO}} {
		v, err := strconv.ParseFloat(q.Get(f.name), 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad or missing %q parameter", f.name))
			return
		}
		*f.dst = v
	}
	if err := sh.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, exact := s.cfg.Grid.Lookup(sh.shares())
	if !exact {
		p = s.cfg.Grid.Interpolate(sh.shares())
	}
	writeJSON(w, http.StatusOK, GridResponse{Exact: exact, Params: p, Shares: sh})
}

// HealthResponse is the /healthz body: liveness plus enough identity to
// tell which build has been up how long and whether it is draining.
type HealthResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		Version:       obs.Version(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.draining.Load(),
	}
	if resp.Draining {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTelemetry serves the per-tenant telemetry snapshot: sketches,
// drift scores, and residual EWMAs, tenants in name order.
func (s *Server) handleTelemetry(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Tenants []telemetry.TenantSnapshot `json:"tenants"`
	}{Tenants: s.cfg.Telemetry.Snapshot()})
}

// Drain gracefully stops the server's work: new work-accepting requests
// are rejected with 503 (polling and health endpoints stay up), accepted
// solve jobs run to completion, and in-flight synchronous requests
// finish. If ctx expires first, still-running jobs are canceled (they
// terminate as canceled, never silently dropped) and ctx's error is
// returned. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.Swap(true) {
		mDrainStarted.Inc()
		obs.Info("drain started")
		// Stop the autotune ticker first: a reconfiguration mid-drain has
		// nothing left to serve, and the loop's goroutine must not outlive
		// the server.
		if s.atStop != nil {
			s.atStop()
			<-s.atDone
		}
	}
	if err := s.jobs.drain(ctx); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		obs.Info("drain complete")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- admission control -------------------------------------------------

// errTooBusy maps to 429 + Retry-After.
var errTooBusy = errors.New("server: saturated, try again later")

// badRequestError marks a compute-path failure as the caller's fault
// (400 rather than 500).
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }

// limiter admits at most maxInflight concurrent executions with at most
// maxQueue more waiting; anything beyond is rejected immediately — the
// bounded-worker-pool half of admission control (jobs have their own
// bounded queue). The waiting count is exported as server.queue.depth.
type limiter struct {
	slots    chan struct{}
	pressure atomic.Int64 // executing + waiting
	max      int64        // maxInflight + maxQueue
	inflight int64        // == cap(slots)
}

func newLimiter(maxInflight, maxQueue int) *limiter {
	return &limiter{
		slots:    make(chan struct{}, maxInflight),
		max:      int64(maxInflight + maxQueue),
		inflight: int64(maxInflight),
	}
}

// acquire claims an execution slot, waiting in the bounded queue if all
// slots are busy. ok is false when the queue is full (reject with 429)
// or ctx died while waiting.
func (l *limiter) acquire(ctx context.Context) (release func(), ok bool) {
	p := l.pressure.Add(1)
	if p > l.max {
		l.pressure.Add(-1)
		mAdmissionReject.Inc()
		return nil, false
	}
	l.setQueueGauge(p)
	select {
	case l.slots <- struct{}{}:
		return func() {
			<-l.slots
			l.setQueueGauge(l.pressure.Add(-1))
		}, true
	case <-ctx.Done():
		l.setQueueGauge(l.pressure.Add(-1))
		return nil, false
	}
}

// setQueueGauge publishes the number of sweeps waiting for a slot.
func (l *limiter) setQueueGauge(pressure int64) {
	waiting := pressure - l.inflight
	if waiting < 0 {
		waiting = 0
	}
	gQueueDepth.Set(float64(waiting))
}

// --- JSON plumbing ------------------------------------------------------

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeComputeError maps a what-if computation failure onto its status
// code: saturation → 429 (+Retry-After), caller mistakes → 400, expired
// deadlines → 504, everything else → 500.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	var bad badRequestError
	switch {
	case errors.Is(err, errTooBusy):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request canceled")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}
