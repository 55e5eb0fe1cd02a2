// Package server implements vdtuned: a long-running tuning-as-a-service
// daemon over the virtualization design engine. It exposes the what-if
// cost model and the design-search solvers as an HTTP/JSON API, sharing
// one prepared-statement cache and its per-statement cost atoms across
// every session, coalescing identical in-flight what-if sweeps, bounding
// concurrency with admission control, and draining gracefully on
// shutdown. The paper casts the design advisor as a tool invoked per
// consolidation decision; this package is the shape that tool takes when
// it must serve many concurrent tuning sessions (see DESIGN.md §10).
package server

import (
	"fmt"
	"sort"
	"strings"

	"dbvirt/internal/core"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// Request size bounds: anything beyond these is a malformed or abusive
// request, rejected with 400 before any work is done.
const (
	maxWorkloads   = 16
	maxRepeat      = 64
	maxAllocations = 4096
	maxBodyBytes   = 1 << 20
)

// WorkloadRef names one workload of a request: n repetitions of one of
// the built-in benchmark queries (Q1, Q3, Q4, Q6, Q13, QPOINT) over a
// server-managed database. Workloads with equal query/repeat resolve to
// the same interned cost identity whatever their weight and SLO, so the
// prepared statements and cost atoms apply across requests and sessions.
type WorkloadRef struct {
	Name       string  `json:"name,omitempty"`
	Query      string  `json:"query"`
	Repeat     int     `json:"repeat,omitempty"` // default 1
	Weight     float64 `json:"weight,omitempty"`
	SLOSeconds float64 `json:"slo_seconds,omitempty"`
}

// SharesDTO is one allocation column: the fraction of each physical
// resource granted to a workload's VM.
type SharesDTO struct {
	CPU    float64 `json:"cpu"`
	Memory float64 `json:"memory"`
	IO     float64 `json:"io"`
}

func (s SharesDTO) shares() vm.Shares {
	return vm.Shares{CPU: s.CPU, Memory: s.Memory, IO: s.IO}
}

func sharesDTO(s vm.Shares) SharesDTO {
	return SharesDTO{CPU: s.CPU, Memory: s.Memory, IO: s.IO}
}

func (s SharesDTO) validate() error {
	for _, v := range []float64{s.CPU, s.Memory, s.IO} {
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("share %g out of range (0, 1]", v)
		}
	}
	return nil
}

// WhatIfRequest asks for the batch cost matrix of a workload set under
// candidate allocations — one row per workload, one column per
// allocation, exactly the inner loop of the paper's design search.
type WhatIfRequest struct {
	Workloads   []WorkloadRef `json:"workloads"`
	Allocations []SharesDTO   `json:"allocations"`
	// TimeoutMS bounds this request's computation; 0 uses the server
	// default. The deadline is threaded into every cost-model call.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (r *WhatIfRequest) validate() error {
	if len(r.Workloads) == 0 {
		return fmt.Errorf("no workloads")
	}
	if len(r.Workloads) > maxWorkloads {
		return fmt.Errorf("too many workloads (%d > %d)", len(r.Workloads), maxWorkloads)
	}
	if len(r.Allocations) == 0 {
		return fmt.Errorf("no allocations")
	}
	if len(r.Allocations) > maxAllocations {
		return fmt.Errorf("too many allocations (%d > %d)", len(r.Allocations), maxAllocations)
	}
	for i, w := range r.Workloads {
		if err := validateRef(w); err != nil {
			return fmt.Errorf("workload %d: %w", i, err)
		}
	}
	for i, a := range r.Allocations {
		if err := a.validate(); err != nil {
			return fmt.Errorf("allocation %d: %w", i, err)
		}
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms")
	}
	return nil
}

// coalesceKey is the canonical identity of a what-if sweep: defaults
// applied, names dropped (they do not affect costs), deterministic field
// order. Two requests with equal keys compute byte-identical responses,
// which is what makes coalescing them sound.
func (r *WhatIfRequest) coalesceKey() string {
	var b strings.Builder
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "w:%s;", refKey(w))
	}
	for _, a := range r.Allocations {
		fmt.Fprintf(&b, "a:%.9f,%.9f,%.9f;", a.CPU, a.Memory, a.IO)
	}
	return b.String()
}

// WhatIfResponse is the dense cost matrix: Costs[i][j] is the predicted
// seconds of Workloads[i] under Allocations[j].
type WhatIfResponse struct {
	Model string      `json:"model"`
	Costs [][]float64 `json:"costs"`
}

// SolveRequest submits one design problem for asynchronous solving.
type SolveRequest struct {
	Workloads  []WorkloadRef `json:"workloads"`
	Resources  []string      `json:"resources,omitempty"` // default ["cpu"]
	Step       float64       `json:"step,omitempty"`      // default 0.25
	Algo       string        `json:"algo,omitempty"`      // dp (default), greedy, exhaustive
	SLOPenalty float64       `json:"slo_penalty,omitempty"`
	TimeoutMS  int64         `json:"timeout_ms,omitempty"`
}

func (r *SolveRequest) applyDefaults() {
	if r.Step == 0 {
		r.Step = 0.25
	}
	if r.Algo == "" {
		r.Algo = "dp"
	}
	if len(r.Resources) == 0 {
		r.Resources = []string{"cpu"}
	}
}

// resources parses the request's resource names.
func (r *SolveRequest) resources() ([]vm.Resource, error) {
	out := make([]vm.Resource, len(r.Resources))
	for i, name := range r.Resources {
		var err error
		if out[i], err = vm.ParseResource(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *SolveRequest) validate() error {
	if len(r.Workloads) < 2 {
		return fmt.Errorf("need at least 2 workloads, got %d", len(r.Workloads))
	}
	if len(r.Workloads) > maxWorkloads {
		return fmt.Errorf("too many workloads (%d > %d)", len(r.Workloads), maxWorkloads)
	}
	for i, w := range r.Workloads {
		if err := validateRef(w); err != nil {
			return fmt.Errorf("workload %d: %w", i, err)
		}
	}
	if _, err := core.SolverNamed(r.Algo); err != nil {
		return err
	}
	resources, err := r.resources()
	if err != nil {
		return err
	}
	if err := core.ValidateShape(len(r.Workloads), resources, r.Step); err != nil {
		return err
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms")
	}
	if r.SLOPenalty < 0 {
		return fmt.Errorf("negative slo_penalty")
	}
	return nil
}

// SolveAccepted acknowledges an accepted solve job.
type SolveAccepted struct {
	JobID string `json:"job_id"`
}

// SolveResult is the deterministic part of a core.Result: everything but
// the wall clock, so the same problem solved twice — serially or under
// load — marshals to byte-identical JSON.
type SolveResult struct {
	Algorithm      string      `json:"algorithm"`
	Allocation     []SharesDTO `json:"allocation"`
	PredictedCosts []float64   `json:"predicted_costs"`
	PredictedTotal float64     `json:"predicted_total"`
	Evaluations    int         `json:"evaluations"`
	CacheHits      int         `json:"cache_hits"`
}

func solveResult(r *core.Result) *SolveResult {
	out := &SolveResult{
		Algorithm:      r.Algorithm,
		PredictedCosts: r.PredictedCosts,
		PredictedTotal: r.PredictedTotal,
		Evaluations:    r.Evaluations,
		CacheHits:      r.CacheHits,
	}
	for _, sh := range r.Allocation {
		out.Allocation = append(out.Allocation, sharesDTO(sh))
	}
	return out
}

// JobStatus is the polled view of one solve job.
type JobStatus struct {
	ID     string       `json:"id"`
	State  string       `json:"state"`
	Result *SolveResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// errorResponse is the uniform error body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func validateRef(w WorkloadRef) error {
	if _, ok := workload.Lookup(strings.ToUpper(strings.TrimSpace(w.Query))); !ok {
		var names []string
		for k := range workload.Queries() {
			names = append(names, k)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown query %q (have %s)", w.Query, strings.Join(names, ", "))
	}
	if w.Repeat < 0 || w.Repeat > maxRepeat {
		return fmt.Errorf("repeat %d out of range [0, %d]", w.Repeat, maxRepeat)
	}
	if w.Weight < 0 {
		return fmt.Errorf("negative weight")
	}
	if w.SLOSeconds < 0 {
		return fmt.Errorf("negative slo_seconds")
	}
	return nil
}

// canonRef is a reference's cost identity: the canonical query name and
// the repeat count with its default applied.
func canonRef(w WorkloadRef) (query string, repeat int) {
	repeat = w.Repeat
	if repeat == 0 {
		repeat = 1
	}
	return strings.ToUpper(strings.TrimSpace(w.Query)), repeat
}

// refKey canonicalizes a workload reference for response identity: what
// it prices (query × repeat) and the objective terms a response may
// depend on. The display name is excluded: it does not affect statements,
// bindings, or costs.
func refKey(w WorkloadRef) string {
	q, n := canonRef(w)
	return fmt.Sprintf("%sx%d|w=%.9f|slo=%.9f", q, n, w.Weight, w.SLOSeconds)
}

// spec resolves one workload reference to its interned spec over the
// environment's one database (built on first use; see DESIGN, cost
// identity). Weight and SLO are not cost identity: a reference carrying
// them gets a view of the interned spec that lives as long as its request
// (or, in a placement, its tenant).
func (s *Server) spec(ref WorkloadRef) (*core.WorkloadSpec, error) {
	qname, n := canonRef(ref)
	db, err := s.cfg.Env.DB("srv")
	if err != nil {
		return nil, fmt.Errorf("server: building database for %s: %w", qname, err)
	}
	// Intern copies the statements only for a new spec, so a hit builds
	// them on the stack.
	var buf [maxRepeat]string
	stmts, q := buf[:n], workload.Query(qname)
	for i := range stmts {
		stmts[i] = q
	}
	sp := core.Intern(fmt.Sprintf("%sx%d", qname, n), db, stmts)
	if ref.Weight != 0 || ref.SLOSeconds != 0 {
		return sp.WithObjective(ref.Weight, ref.SLOSeconds), nil
	}
	return sp, nil
}

// resolve resolves a whole request's workload list.
func (s *Server) resolve(refs []WorkloadRef) ([]*core.WorkloadSpec, error) {
	out := make([]*core.WorkloadSpec, len(refs))
	for i, ref := range refs {
		sp, err := s.spec(ref)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}
