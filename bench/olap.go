package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"dbvirt/internal/buffer"
	"dbvirt/internal/engine"
	"dbvirt/internal/executor"
	"dbvirt/internal/experiments"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/types"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// olapDataSeed is the seed the database is generated with. It is not the
// run's seed: the data is part of the workload's definition, and the run's
// seed orders the statements.
const olapDataSeed = 7

// olapCyclesPerLap is the frozen lap length: 5 round-robin cycles of the
// 8 statements, about half a second on the reference box.
const olapCyclesPerLap = 5

// olapStatement is one member of the round-robin. unordered results are
// digested order-insensitively.
type olapStatement struct {
	name, sql string
	unordered bool
}

var olapStatements = []olapStatement{
	{name: "Q1", sql: workload.Query("Q1")},
	{name: "Q3", sql: workload.Query("Q3")},
	{name: "Q4", sql: workload.Query("Q4")},
	{name: "Q6", sql: workload.Query("Q6")},
	{name: "Q13", sql: workload.Query("Q13"), unordered: true},
	{name: "Q13FULL", sql: workload.Query("Q13FULL")},
	// A scan no index helps: every lineitem page is read and filtered.
	{name: "scan", sql: `SELECT count(*), sum(l_extendedprice * l_discount) FROM lineitem
		WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`},
	// A range on a column that follows the load order and has no index:
	// zone maps let the scan skip ~95% of the pages.
	{name: "zone", sql: `SELECT count(*), sum(l_quantity) FROM lineitem
		WHERE l_commitdate >= date '1995-01-01' AND l_commitdate < date '1995-03-01'`},
}

// olapGolden is bench/golden/olap.json: per statement the result size and
// digest (they depend on the data only), and per (seed, op count) the VM's
// exact simulated work over the fixed laps (it depends on statement order
// through the buffer pool, so it is recorded for the default seed).
type olapGolden struct {
	Scale      string                  `json:"scale"`
	DataSeed   int64                   `json:"data_seed"`
	Statements map[string]selectResult `json:"statements"`
	Totals     map[string]olapVMTotals `json:"totals"`
}

type selectResult struct {
	Rows   int64  `json:"rows"`
	Digest string `json:"digest"`
}

type olapVMTotals struct {
	CPUOps     float64 `json:"cpu_ops"`
	SeqReads   int64   `json:"seq_reads"`
	RandReads  int64   `json:"rand_reads"`
	SimSeconds float64 `json:"sim_seconds"`
}

//go:embed golden/olap.json
var olapGoldenJSON []byte

const olapGoldenPath = "bench/golden/olap.json"

// recordGolden makes the olap workload rewrite its golden file from what
// it observes instead of checking against it (-record-golden).
var recordGolden bool

type olapWorkload struct {
	seed   int64
	sz     sizing
	tr     *tracer
	sess   *engine.Session
	golden olapGolden
	start  vm.Usage // the VM's counters when set-up ended
}

func newOLAP(seed int64, sz sizing, tr *tracer) (*olapWorkload, error) {
	w := &olapWorkload{seed: seed, sz: sz, tr: tr}
	if err := json.Unmarshal(olapGoldenJSON, &w.golden); err != nil {
		return nil, fmt.Errorf("olap: golden file: %w", err)
	}
	if w.golden.Statements == nil {
		w.golden.Statements = map[string]selectResult{}
	}
	if w.golden.Totals == nil {
		w.golden.Totals = map[string]olapVMTotals{}
	}
	return w, nil
}

func (w *olapWorkload) kinds() []string { return olapKinds }

func (w *olapWorkload) setup() error {
	env := experiments.QuickEnv()
	env.Seed = olapDataSeed
	db, err := env.DB("olap")
	if err != nil {
		return err
	}
	v, err := newVM(env.Machine, "olap", vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
	if err != nil {
		return err
	}
	if w.sess, err = engine.NewSession(db, v, env.Engine); err != nil {
		return err
	}
	line, err := db.Catalog.Table("lineitem")
	if err != nil {
		return err
	}
	pages, frames := w.sess.Pool.NumPages(line.Heap.FileID()), w.sess.Pool.NumFrames()
	logf("olap: lineitem has %d pages, the buffer pool %d frames", pages, frames)
	if int(pages) <= frames {
		return fmt.Errorf("lineitem (%d pages) fits the buffer pool (%d frames): the workload must exceed it", pages, frames)
	}
	// Warm-up: every statement once, layer by layer, checking its rows and
	// digest against the golden file.
	for i := range olapStatements {
		st := &olapStatements[i]
		before := w.sess.Pool.Stats()
		got, err := runSelectLayers(w.sess, w.tr, st.sql, st.unordered, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		if st.name == "Q1" {
			after := w.sess.Pool.Stats()
			if after.Misses == before.Misses {
				return fmt.Errorf("Q1 ran with buffer.hit_ratio = 1: lineitem must not fit the pool")
			}
		}
		if recordGolden {
			w.golden.Statements[st.name] = got
		} else if want := w.golden.Statements[st.name]; got != want {
			return fmt.Errorf("%s returned %+v, golden file says %+v", st.name, got, want)
		}
	}
	w.start = v.Snapshot()
	return nil
}

func (w *olapWorkload) lap(i int) [][]op {
	cycles := w.sz.scaled(olapCyclesPerLap, 1)
	ops := make([]op, 0, cycles*len(olapStatements))
	for c := 0; c < cycles; c++ {
		rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i*cycles+c)))
		for _, k := range rng.Perm(len(olapStatements)) {
			st := olapStatements[k]
			ops = append(ops, op{kind: uint8(k), sql: st.sql, want: w.golden.Statements[st.name].Rows})
		}
	}
	return [][]op{ops}
}

func (w *olapWorkload) do(_ int, o *op, ot *opTrace) (time.Duration, error) {
	start := time.Now()
	if ot == nil {
		n, err := w.sess.RunStatement(o.sql)
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		if n != o.want {
			return d, fmt.Errorf("%d rows, want %d", n, o.want)
		}
		return d, nil
	}
	st := &olapStatements[o.kind]
	got, err := runSelectLayers(w.sess, w.tr, st.sql, st.unordered, ot)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if want := w.golden.Statements[st.name]; got != want {
		return d, fmt.Errorf("returned %+v, golden file says %+v", got, want)
	}
	return d, nil
}

// runSelectLayers performs a SELECT the way Session.RunStatement does,
// but one layer at a time with a span around each, and digests the result
// rows (order-insensitively when unordered). The executor context is built
// from the session's public fields; RunStatement would add a visibility
// filter only while row versions are pending, and between autocommit
// statements of a single session none are.
func runSelectLayers(s *engine.Session, tr *tracer, text string, unordered bool, ot *opTrace) (selectResult, error) {
	var t0 int64
	if ot != nil {
		t0 = tr.now()
	}
	mark := func(kind spanKind) {
		if ot != nil {
			t1 := tr.now()
			ot.span(kind, t0, t1)
			t0 = t1
		}
	}
	sel, err := sql.ParseSelect(text)
	mark(spanParse)
	if err != nil {
		return selectResult{}, err
	}
	q, err := plan.Bind(sel, s.DB.Catalog)
	mark(spanBind)
	if err != nil {
		return selectResult{}, err
	}
	pl, err := optimizer.Optimize(q, s.Params)
	mark(spanOptimize)
	if err != nil {
		return selectResult{}, err
	}
	res, err := executor.Run(pl, &executor.Context{
		Pool: s.Pool, VM: s.VM, WorkMemBytes: s.Params.WorkMemBytes, Mode: s.Config.Executor,
	})
	if err != nil {
		return selectResult{}, err
	}
	var rows int64
	digest := uint64(fnvOffset)
	for {
		row, ok, err := res.Next()
		if err != nil {
			res.Close()
			return selectResult{}, err
		}
		if !ok {
			break
		}
		rows++
		if h := rowHash(row); unordered {
			digest += h
		} else {
			digest = (digest ^ h) * fnvPrime
		}
	}
	res.Close()
	mark(spanExecute)
	return selectResult{Rows: rows, Digest: fmt.Sprintf("%016x", digest)}, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

// digest is the FNV-1a of a response payload.
func digest(payload []byte) uint64 { return fnv1a(fnvOffset, payload) }

// rowHash is FNV-1a over each value's kind and exact representation.
func rowHash(row plan.Row) uint64 {
	h := uint64(fnvOffset)
	for _, v := range row {
		h = (h ^ uint64(v.Kind)) * fnvPrime
		switch v.Kind {
		case types.KindString:
			h = fnv1a(h, v.S)
		case types.KindFloat:
			h = (h ^ math.Float64bits(v.F)) * fnvPrime
		default:
			h = (h ^ uint64(v.I)) * fnvPrime
		}
	}
	return h
}

// endLap checks, after the last fixed lap, that the VM's simulated work
// since set-up is exactly the recorded one. Both execution paths (traced
// and RunStatement) must charge identically for this to hold on a traced
// run.
func (w *olapWorkload) endLap(i int) (time.Duration, error) {
	if i != fixedLaps-1 {
		return 0, nil
	}
	ops := fixedLaps * w.sz.scaled(olapCyclesPerLap, 1) * len(olapStatements)
	key := fmt.Sprintf("seed=%d/ops=%d", w.seed, ops)
	u := w.sess.VM.Since(w.start)
	_, _, overlap := w.engineState()
	got := olapVMTotals{CPUOps: u.CPUOps, SeqReads: u.SeqReads, RandReads: u.RandReads, SimSeconds: u.Elapsed(overlap)}
	if recordGolden {
		w.golden.Totals[key] = got
		return 0, nil
	}
	if want, ok := w.golden.Totals[key]; ok && got != want {
		return 0, fmt.Errorf("simulated work over the first %d ops is %+v, golden file says %+v", ops, got, want)
	}
	return 0, nil
}

func (w *olapWorkload) finish(bool) error {
	if !recordGolden {
		return nil
	}
	w.golden.Scale, w.golden.DataSeed = "small", olapDataSeed
	data, err := json.MarshalIndent(w.golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(olapGoldenPath, append(data, '\n'), 0o644)
}

func (w *olapWorkload) engineState() (buffer.Stats, vm.Usage, float64) {
	return w.sess.Pool.Stats(), w.sess.VM.Snapshot(), w.sess.VM.Machine().Config().Overlap
}

func (w *olapWorkload) layerMetrics(metricSet, *tracer) {}
func (w *olapWorkload) close()                          {}
