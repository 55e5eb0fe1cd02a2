package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dbvirt/internal/buffer"
	"dbvirt/internal/core"
	"dbvirt/internal/server"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// Frozen sizes of the tuner_service workload.
const (
	tunerClients    = 2    // closed-loop callers, one connection each (= nproc of the reference box)
	tunerOpsPerLap  = 2000 // over both clients
	tunerWarmupOps  = 400  // during set-up, after the 16 repeated bodies
	tunerSampleRate = 16   // one fresh op in this many is re-checked against the reference server
)

// Op kinds of the tuner_service mix, indices into tunerKinds.
const (
	kWhatIf = iota
	kSolve
	kGrid
)

var tunerKinds = []string{"whatif", "solve", "grid"}

var tunerQueries = func() []string {
	var names []string
	for q := range workload.Queries() {
		names = append(names, q)
	}
	sort.Strings(names)
	return names
}()

// wref is one workload reference of a request body.
type wref struct {
	name, query string
	repeat      int
	weight      float64
}

func (r wref) json() string {
	var b strings.Builder
	b.WriteByte('{')
	if r.name != "" {
		fmt.Fprintf(&b, `"name":%q,`, r.name)
	}
	fmt.Fprintf(&b, `"query":%q,"repeat":%d`, r.query, r.repeat)
	if r.weight != 0 {
		fmt.Fprintf(&b, `,"weight":%.6f`, r.weight)
	}
	b.WriteByte('}')
	return b.String()
}

// key is the shared-memo identity the server derives for the reference.
func (r wref) key() string {
	return fmt.Sprintf("%sx%d|w=%.9f|slo=%.9f", r.query, r.repeat, r.weight, 0.0)
}

func refsJSON(refs []wref) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.json()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// tunerGen emits one client's ops. Half repeat one of the 16 bodies fixed
// at construction (the coalescer and memo answer those); half are fresh:
// new weights, repeats and off-lattice shares, which miss the shared memo
// and re-cost prepared statements.
type tunerGen struct {
	rng    *rand.Rand
	hot    []op
	fresh  int
	solves int
}

// share draws an allocation share that is on no calibration lattice.
func share(rng *rand.Rand) float64 { return float64(101+rng.Intn(899)) / 1000 }

func (g *tunerGen) refs(n int, fresh bool) []wref {
	refs := make([]wref, n)
	for i := range refs {
		refs[i] = wref{query: tunerQueries[g.rng.Intn(len(tunerQueries))], repeat: 1 + g.rng.Intn(4)}
		if fresh {
			refs[i].weight = 1 + float64(g.rng.Intn(1_000_000))/1e6
		}
	}
	return refs
}

func (g *tunerGen) whatIf(fresh bool) op {
	refs := g.refs(3, fresh)
	allocs := make([]string, 8)
	for i := range allocs {
		allocs[i] = fmt.Sprintf(`{"cpu":%.3f,"memory":%.3f,"io":%.3f}`, share(g.rng), share(g.rng), share(g.rng))
	}
	return op{kind: kWhatIf, method: "POST", path: "/v1/whatif", want: 3,
		body: fmt.Sprintf(`{"workloads":%s,"allocations":[%s]}`, refsJSON(refs), strings.Join(allocs, ","))}
}

func (g *tunerGen) solve(fresh bool) op {
	refs := g.refs(3+g.rng.Intn(2), fresh)
	keys := map[string]bool{}
	for _, r := range refs {
		keys[r.key()] = true
	}
	algo := solveAlgos[g.solves%len(solveAlgos)]
	g.solves++
	return op{kind: kSolve, method: "POST", path: "/v1/solve", want: int64(len(refs)), specKeys: keys,
		body: fmt.Sprintf(`{"workloads":%s,"resources":["cpu","memory"],"step":0.125,"algo":%q}`, refsJSON(refs), algo)}
}

func (g *tunerGen) grid() op {
	return op{kind: kGrid, method: "GET",
		path: fmt.Sprintf("/v1/calibration/grid?cpu=%.3f&mem=%.3f&io=%.3f", share(g.rng), share(g.rng), share(g.rng))}
}

// hotBodies builds the 16 repeated bodies: 10 what-if, 4 solve, 2 grid.
func hotBodies(seed int64) []op {
	g := &tunerGen{rng: rand.New(rand.NewSource(seed))}
	var hot []op
	for i := 0; i < 10; i++ {
		hot = append(hot, g.whatIf(false))
	}
	for i := 0; i < 4; i++ {
		hot = append(hot, g.solve(false))
	}
	return append(hot, g.grid(), g.grid())
}

// next emits one op of the mix: 60% what-if, 30% solve, 10% grid.
func (g *tunerGen) next() op {
	kind, fresh := kWhatIf, g.rng.Intn(2) == 0
	switch p := g.rng.Intn(10); {
	case p >= 9:
		kind = kGrid
	case p >= 6:
		kind = kSolve
	}
	if !fresh {
		var same []int
		for i := range g.hot {
			if int(g.hot[i].kind) == kind {
				same = append(same, i)
			}
		}
		return g.hot[same[g.rng.Intn(len(same))]]
	}
	var o op
	switch kind {
	case kWhatIf:
		o = g.whatIf(true)
	case kSolve:
		o = g.solve(true)
	default:
		o = g.grid()
	}
	o.sample = g.fresh%tunerSampleRate == 0
	g.fresh++
	return o
}

// sampled is a fresh op kept for the reference check with the digest of
// the payload the server under test returned.
type sampled struct {
	op  op
	sum uint64
}

type tunerRunner struct {
	seed int64
	sz   sizing
	tr   *tracer
	svc  *service
	gens []*tunerGen
	hot  []op

	mu      sync.Mutex
	samples []sampled

	netOverheadUS float64
	solveMS       map[string]float64
}

func newTuner(seed int64, sz sizing, tr *tracer) *tunerRunner {
	return &tunerRunner{seed: seed, sz: sz, tr: tr}
}

func (w *tunerRunner) kinds() []string { return tunerKinds }

func (w *tunerRunner) setup() error {
	svc, err := startService(w.tr, w.sz, tunerClients, nil)
	if err != nil {
		return err
	}
	w.svc = svc
	// The repeated bodies: the reference server fixes what each must
	// return, and one real request each warms the server under test.
	w.hot = hotBodies(w.seed)
	for i := range w.hot {
		o := &w.hot[i]
		want, err := svc.reference(o, tunerKinds)
		if err != nil {
			return fmt.Errorf("repeated body %d: %w", i, err)
		}
		o.sum = digest(want)
		if _, err := w.do(0, o, nil); err != nil {
			return fmt.Errorf("repeated body %d: %w", i, err)
		}
	}
	for c := 0; c < tunerClients; c++ {
		w.gens = append(w.gens, &tunerGen{rng: rand.New(rand.NewSource(w.seed*7919 + int64(c) + 1)), hot: w.hot})
	}
	for i := 0; i < w.sz.scaled(tunerWarmupOps, 8); i++ {
		c := i % tunerClients
		o := w.gens[c].next()
		if _, err := w.do(c, &o, nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

func (w *tunerRunner) lap(int) [][]op {
	per := w.sz.scaled(tunerOpsPerLap, 32) / tunerClients
	ops := make([][]op, tunerClients)
	for c := range ops {
		ops[c] = make([]op, per)
		for i := range ops[c] {
			ops[c][i] = w.gens[c].next()
		}
	}
	return ops
}

// do sends one op. A solve op is the submit plus the polls until the job
// is terminal; its latency is submit to observed completion. The latency
// clock stops when the last response has been read, before it is checked.
func (w *tunerRunner) do(c int, o *op, ot *opTrace) (time.Duration, error) {
	if ot != nil && o.kind == kSolve {
		w.tr.claimSolve(ot, o.specKeys)
	}
	start := time.Now()
	code, payload, err := w.svc.roundTrip(c, ot, o.method, o.path, o.body)
	if err == nil && o.kind == kSolve && code == http.StatusAccepted {
		var acc server.SolveAccepted
		if err = json.Unmarshal(payload, &acc); err == nil {
			code, payload, err = w.svc.awaitJob(c, ot, acc.JobID)
		}
	}
	d := time.Since(start)
	if ot != nil {
		ot.end = w.tr.now()
	}
	if err != nil {
		return d, err
	}
	if code != http.StatusOK {
		return d, fmt.Errorf("status %d: %.200s", code, payload)
	}
	if o.kind == kSolve {
		payload = solveResult(payload)
	}
	if o.sum != 0 {
		if got := digest(payload); got != o.sum {
			return d, fmt.Errorf("response differs from the reference server's: %.200s", payload)
		}
		return d, nil
	}
	if err := plausible(o, payload); err != nil {
		return d, err
	}
	if o.sample {
		w.mu.Lock()
		w.samples = append(w.samples, sampled{op: *o, sum: digest(payload)})
		w.mu.Unlock()
	}
	return d, nil
}

// awaitJob polls a solve job until it is terminal. The wait between polls
// starts at 100 µs and grows by a quarter each time, so a job is seen done
// at most ~20% after it was, and the number of polls — which cost the
// process allocations and CPU of their own — hardly moves with timing.
func (s *service) awaitJob(c int, ot *opTrace, id string) (int, []byte, error) {
	wait := 100 * time.Microsecond
	for deadline := time.Now().Add(30 * time.Second); ; wait += wait / 4 {
		time.Sleep(wait)
		code, payload, err := s.roundTrip(c, ot, "GET", "/v1/jobs/"+id, "")
		if err != nil || code != http.StatusOK || !jobPending(payload) {
			return code, payload, err
		}
		if time.Now().After(deadline) {
			return code, payload, fmt.Errorf("job %s still pending after 30 s", id)
		}
	}
}

// plausible is the structural check every fresh response gets; one in
// tunerSampleRate is also compared with the reference server afterwards.
func plausible(o *op, payload []byte) error {
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
	switch o.kind {
	case kWhatIf:
		var r server.WhatIfResponse
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		if int64(len(r.Costs)) != o.want {
			return fmt.Errorf("%d cost rows, want %d", len(r.Costs), o.want)
		}
		for _, row := range r.Costs {
			if len(row) != 8 {
				return fmt.Errorf("cost row of %d columns, want 8", len(row))
			}
			for _, v := range row {
				if !positive(v) {
					return fmt.Errorf("cost %v", v)
				}
			}
		}
	case kSolve:
		var st struct {
			Result *server.SolveResult `json:"result"`
		}
		// payload is the tail of the status object: `"result":{...}}`.
		if err := json.Unmarshal(append([]byte("{"), payload...), &st); err != nil {
			return fmt.Errorf("job did not end with a result: %.200s", payload)
		}
		if st.Result == nil || int64(len(st.Result.Allocation)) != o.want || !positive(st.Result.PredictedTotal) {
			return fmt.Errorf("implausible solve result: %.200s", payload)
		}
	default:
		var r server.GridResponse
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		if !positive(r.Params.TimePerSeqPage) {
			return fmt.Errorf("implausible grid parameters: %.200s", payload)
		}
	}
	return nil
}

func (w *tunerRunner) endLap(int) (time.Duration, error) { return 0, nil }

func (w *tunerRunner) finish(traced bool) error {
	for i := range w.samples {
		s := &w.samples[i]
		want, err := w.svc.reference(&s.op, tunerKinds)
		if err != nil {
			return err
		}
		if digest(want) != s.sum {
			return fmt.Errorf("%s %s %s: response differed from the reference server's %.200s", s.op.method, s.op.path, s.op.body, want)
		}
	}
	if !traced {
		return nil
	}
	w.netOverheadUS = w.svc.netOverhead(&w.hot[0])
	var err error
	w.solveMS, err = w.svc.solveReplay(w.hot)
	return err
}

// netOverhead is the median loopback round trip of a repeated body minus
// the median in-process ServeHTTP of the same body, in microseconds.
func (s *service) netOverhead(o *op) float64 {
	const n = 300
	var wire, direct []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		s.roundTrip(0, nil, o.method, o.path, o.body)
		wire = append(wire, float64(time.Since(start))/1e3)
		start = time.Now()
		inProcess(s.srv, o.method, o.path, o.body)
		direct = append(direct, float64(time.Since(start))/1e3)
	}
	return median(wire) - median(direct)
}

// solveReplay times the repeated solve problems directly against the core
// solvers over the server's (now warm) cost model: median ms per algorithm.
func (s *service) solveReplay(hot []op) (map[string]float64, error) {
	solvers := map[string]func(context.Context, *core.Problem, core.CostModel) (*core.Result, error){
		"dp": core.SolveDP, "greedy": core.SolveGreedy, "exhaustive": core.SolveExhaustive,
	}
	out := map[string]float64{}
	for algo, solve := range solvers {
		var ms []float64
		for i := range hot {
			if hot[i].kind != kSolve {
				continue
			}
			var req server.SolveRequest
			if err := json.Unmarshal([]byte(hot[i].body), &req); err != nil {
				return nil, err
			}
			p := &core.Problem{Resources: []vm.Resource{vm.CPU, vm.Memory}, Step: req.Step}
			for _, r := range req.Workloads {
				db, err := s.env.DB("srv-" + r.Query)
				if err != nil {
					return nil, err
				}
				p.Workloads = append(p.Workloads, &core.WorkloadSpec{
					Name:       fmt.Sprintf("%sx%d", r.Query, r.Repeat),
					Statements: workload.Repeat(r.Query, workload.Query(r.Query), r.Repeat).Statements,
					DB:         db,
				})
			}
			for rep := 0; rep < 10; rep++ {
				start := time.Now()
				if _, err := solve(context.Background(), p, s.model); err != nil {
					return nil, fmt.Errorf("solve replay (%s): %w", algo, err)
				}
				ms = append(ms, float64(time.Since(start))/1e6)
			}
		}
		out[algo] = median(ms)
	}
	return out, nil
}

func (w *tunerRunner) engineState() (buffer.Stats, vm.Usage, float64) {
	return buffer.Stats{}, vm.Usage{}, 0
}

func (w *tunerRunner) layerMetrics(m metricSet, _ *tracer) {
	w.svc.calibrationMetrics(m)
	m["server.net_overhead_us"] = w.netOverheadUS
	for algo, ms := range w.solveMS {
		m["core.solve_ms_p50."+algo] = ms
	}
}

func (w *tunerRunner) close() {
	if w.svc != nil {
		w.svc.stop()
	}
}
