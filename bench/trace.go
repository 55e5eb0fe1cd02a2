package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbvirt/internal/core"
	"dbvirt/internal/obs"
	"dbvirt/internal/vm"
)

// spanKind names a span the harness records. Every span is taken from
// outside the program, around a call into one layer's public functions.
type spanKind uint8

const (
	spanParse spanKind = iota
	spanBind
	spanOptimize
	spanExecute
	spanWAL
	spanShared // SharedCostModel.Cost: memo lookup, and the what-if call on a miss
	spanWhatIf // WhatIfModel.Cost: prepared-statement re-cost
	spanHTTP   // one HTTP round trip of an op (a solve op has several)
	spanKinds
)

var spanNames = [spanKinds]string{"sql.parse", "plan.bind", "optimizer.optimize", "executor.run",
	"wal.device", "core.shared", "core.whatif", "server.http"}

// maxRetainedSpans bounds the Chrome trace file; ops beyond it still fold
// into the per-layer aggregates.
const maxRetainedSpans = 50000

// childSpan is one interval inside a traced op, in nanoseconds since the
// tracer's epoch.
type childSpan struct {
	kind       spanKind
	start, end int64
}

// opTrace is the root span of one traced op plus its child spans. Engine
// workloads fill spans from the client goroutine; on the HTTP workloads
// the cost-model wrappers append from server goroutines under tracer.mu.
type opTrace struct {
	tr         *tracer
	id         int64
	kind       string
	client     int
	start, end int64
	spans      []childSpan
	sc         obs.SpanContext // HTTP workloads: the op's W3C trace identity
	specKeys   map[string]bool // solve ops: workloads of the job, to claim model spans that carry no trace id
}

// layerAgg sums one kind of span over the traced ops.
type layerAgg struct {
	calls int64
	ns    int64 // sum of durations
	union int64 // per op, the length of the union of this name's intervals, summed
}

// tracer keeps the spans of a traced run in memory: per-name aggregates
// for the per-layer metrics and a bounded list of whole ops for the
// Chrome trace file.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // set for the duration of a traced lap

	mu       sync.Mutex
	nextID   int64
	active   map[[16]byte]*opTrace
	solves   []*opTrace
	agg      [spanKinds]layerAgg
	ops      int64
	opNS     int64 // sum of root-span durations
	retained []*opTrace
	spans    int
	scratch  [spanKinds][]childSpan
	waits    []float64 // solve ops: submit to first cost-model call, ms
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), active: map[[16]byte]*opTrace{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens the root span of one op. http ops get a fresh trace
// identity and are registered so cost-model spans can find them.
func (t *tracer) begin(kind string, client int, http bool) *opTrace {
	ot := &opTrace{tr: t, kind: kind, client: client}
	if http {
		ot.sc = obs.NewSpanContext()
	}
	t.mu.Lock()
	t.nextID++
	ot.id = t.nextID
	if http {
		t.active[ot.sc.TraceID] = ot
	}
	t.mu.Unlock()
	ot.start = t.now()
	return ot
}

// claimSolve registers a solve op's workloads: the job runs on a worker
// whose context carries no trace id, so its cost-model spans are matched
// by workload identity among the solve ops in flight.
func (t *tracer) claimSolve(ot *opTrace, keys map[string]bool) {
	t.mu.Lock()
	ot.specKeys = keys
	t.solves = append(t.solves, ot)
	t.mu.Unlock()
}

// span records one child interval from the op's own goroutine. It takes
// the tracer's lock because, on the HTTP workloads, server goroutines add
// cost-model spans to the same op at the same time.
func (ot *opTrace) span(kind spanKind, start, end int64) {
	ot.tr.mu.Lock()
	ot.spans = append(ot.spans, childSpan{kind, start, end})
	ot.tr.mu.Unlock()
}

// modelSpan attaches one cost-model call to the op that caused it.
func (t *tracer) modelSpan(ctx context.Context, w *core.WorkloadSpec, kind spanKind, start, end int64) {
	sc, traced := obs.SpanContextFrom(ctx)
	key := ""
	if !traced {
		key = specKey(w)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ot *opTrace
	if traced {
		ot = t.active[sc.TraceID]
	} else {
		for _, s := range t.solves {
			if s.specKeys[key] {
				ot = s
				break
			}
		}
	}
	if ot != nil {
		ot.spans = append(ot.spans, childSpan{kind, start, end})
	}
}

// end closes the op and folds it into the aggregates.
func (t *tracer) end(ot *opTrace) {
	if ot.end == 0 { // a runner may have closed the root span itself, before its checks
		ot.end = t.now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ot.sc.Valid() {
		delete(t.active, ot.sc.TraceID)
	}
	if ot.specKeys != nil {
		for i, s := range t.solves {
			if s == ot {
				t.solves = append(t.solves[:i], t.solves[i+1:]...)
				break
			}
		}
		first := int64(-1)
		for _, s := range ot.spans {
			if s.kind == spanShared && (first < 0 || s.start < first) {
				first = s.start
			}
		}
		if first >= 0 {
			t.waits = append(t.waits, float64(first-ot.start)/1e6)
		}
	}
	t.ops++
	t.opNS += ot.end - ot.start
	for k := range t.scratch {
		t.scratch[k] = t.scratch[k][:0]
	}
	for _, s := range ot.spans {
		t.scratch[s.kind] = append(t.scratch[s.kind], s)
	}
	for k, ss := range t.scratch {
		a := &t.agg[k]
		a.calls += int64(len(ss))
		for _, s := range ss {
			a.ns += s.end - s.start
		}
		a.union += unionNS(ss)
	}
	if t.spans < maxRetainedSpans {
		t.retained = append(t.retained, ot)
		t.spans += 1 + len(ot.spans)
	}
}

// unionNS is the total length covered by the intervals.
func unionNS(ss []childSpan) int64 {
	byStart := func(i, j int) bool { return ss[i].start < ss[j].start }
	if !sort.SliceIsSorted(ss, byStart) { // spans of one goroutine arrive in order
		sort.Slice(ss, byStart)
	}
	var total, hi int64
	for i, s := range ss {
		if i == 0 || s.start > hi {
			total += s.end - s.start
			hi = s.end
		} else if s.end > hi {
			total += s.end - hi
			hi = s.end
		}
	}
	return total
}

// perOpUS is the mean per traced op, in microseconds, of the time one
// span name covers (the union of its intervals inside each op).
func (t *tracer) perOpUS(kind spanKind) float64 {
	a := t.agg[kind]
	if t.ops == 0 {
		return 0
	}
	return float64(a.union) / 1e3 / float64(t.ops)
}

func (t *tracer) callsPerOp(kind spanKind) float64 {
	a := t.agg[kind]
	if t.ops == 0 {
		return 0
	}
	return float64(a.calls) / float64(t.ops)
}

// opUS is the mean root-span duration in microseconds.
func (t *tracer) opUS() float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(t.opNS) / 1e3 / float64(t.ops)
}

// writeChrome writes the retained ops as Chrome trace_event JSON (load at
// chrome://tracing or ui.perfetto.dev). A child span's parent is its op's
// root span; args carry the op id.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	event := func(name string, tid int, start, end, op int64, parent string) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%q}}`,
			name, tid, float64(start)/1e3, float64(end-start)/1e3, op, parent)
	}
	for _, ot := range t.retained {
		root := "op." + ot.kind
		event(root, ot.client, ot.start, ot.end, ot.id, "")
		for _, s := range ot.spans {
			tid := ot.client
			if s.kind == spanShared || s.kind == spanWhatIf {
				tid += 100 // cost-model calls run on server goroutines and may overlap
			}
			event(spanNames[s.kind], tid, s.start, s.end, ot.id, root)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedModel records a span around every call into a cost model while a
// traced lap is running; otherwise it only forwards.
type timedModel struct {
	inner core.CostModel
	span  spanKind
	tr    *tracer
}

func (m *timedModel) Name() string { return m.inner.Name() }

func (m *timedModel) Cost(ctx context.Context, w *core.WorkloadSpec, shares vm.Shares) (float64, error) {
	if !m.tr.on.Load() {
		return m.inner.Cost(ctx, w, shares)
	}
	start := m.tr.now()
	v, err := m.inner.Cost(ctx, w, shares)
	m.tr.modelSpan(ctx, w, m.span, start, m.tr.now())
	return v, err
}

// specKey replicates the server's shared-memo workload identity
// (name|weight|slo), which the server does not export.
func specKey(w *core.WorkloadSpec) string {
	return fmt.Sprintf("%s|w=%.9f|slo=%.9f", w.Name, w.Weight, w.SLOSeconds)
}
