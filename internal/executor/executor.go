// Package executor runs physical plans produced by the optimizer on
// vectorized batch operators. Every unit of work — tuples decoded, predicate
// operators evaluated, hash probes, sort comparisons, pages read through
// the buffer pool, and sort/hash spill I/O — is charged to the session's
// virtual machine, so the simulated execution time of a query responds to
// the VM's CPU, memory, and I/O shares exactly the way the paper's
// measured PostgreSQL-on-Xen times do. The charges are those of a
// tuple-at-a-time Volcano executor, which the package's tests keep as the
// parity oracle.
package executor

import (
	"math"

	"dbvirt/internal/buffer"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
	"dbvirt/internal/vm"
)

// Simulated CPU costs in abstract machine operations. With the default
// machine (1e9 ops/s CPU, 2560 pages/s disk) a tuple costs ~0.0008
// sequential page fetches and an index entry ~0.0004 — the regime of the
// paper's 2006 testbed, where plain relation scans are disk-bound and CPU
// sensitivity comes from expression-heavy work (Q13's LIKE predicates).
// Expression operators charge plan.OpsPerOperator per evaluation.
const (
	// OpsPerTuple is charged for each tuple an operator processes.
	OpsPerTuple = 300
	// OpsPerIndexTuple is charged for each index entry visited.
	OpsPerIndexTuple = 150
	// OpsPerHash is charged per key per row for hashing (build, probe,
	// group, distinct).
	OpsPerHash = plan.OpsPerOperator
	// OpsPerCompare is charged per comparison during sorting.
	OpsPerCompare = plan.OpsPerOperator
)

// HashTableOverhead is the in-memory expansion factor of hashed rows
// (buckets, pointers, padding); the planner uses the same factor when
// predicting whether a hash join fits work_mem, keeping estimated and
// actual spill decisions aligned.
const HashTableOverhead = 1.5

// Visibility decides whether one heap tuple is visible to the executing
// snapshot. Scans consult it before processing (or charging for) a tuple.
// A nil Visibility means every live tuple is visible — the zero-overhead
// path taken whenever no multiversion state exists.
type Visibility func(fid storage.FileID, tid storage.TID) bool

// Mode named the executor implementation when there were two.
//
// Deprecated: the batch executor is the only one, and Run ignores
// Context.Mode. Mode goes together with engine.Config.Executor once the
// benchmark harness that still sets them is re-baselined (ROADMAP.md,
// item 1).
type Mode int

// ModeBatch is the zero Mode.
//
// Deprecated: see Mode.
const ModeBatch Mode = 0

// Context carries the runtime environment of one query execution.
type Context struct {
	// Pool is the session's buffer pool; all page access flows through it.
	Pool *buffer.Pool
	// VM is charged for all CPU work and (via the pool) all I/O.
	VM *vm.VM
	// WorkMemBytes bounds sort and hash memory before spill I/O is
	// charged, mirroring the planner's work_mem.
	WorkMemBytes int64
	// Stats, when non-nil, collects per-node execution statistics for
	// EXPLAIN ANALYZE.
	Stats *StatsCollector
	// Mode is ignored.
	//
	// Deprecated: see Mode.
	Mode Mode
	// Vis, when non-nil, restricts scans to tuples visible under the
	// session's snapshot, before any per-tuple CPU charge.
	Vis Visibility
}

// Result streams the visible output rows of a query.
type Result struct {
	Columns []string
	in      batchIterator
	visible []int // the plan's output columns that are not hidden ORDER BY keys
	b       *plan.Batch
	k       int
	row     plan.Row
}

// Next returns the next output row, valid until the next call.
func (r *Result) Next() (plan.Row, bool, error) {
	for r.b == nil || r.k >= r.b.Len() {
		b, ok, err := r.in.NextBatch(noBudget)
		if err != nil || !ok {
			return nil, false, err
		}
		mBatchBatches.Inc()
		mBatchRows.Add(int64(b.Len()))
		r.b, r.k = b, 0
	}
	i := r.b.RowIdx(r.k)
	r.k++
	for j, c := range r.visible {
		r.row[j] = r.b.Value(i, c)
	}
	return r.row, true, nil
}

// Close releases the result's resources.
func (r *Result) Close() { r.in.Close() }

// Collect drains the result into a slice and closes it.
func (r *Result) Collect() ([]plan.Row, error) {
	defer r.Close()
	var out []plan.Row
	for {
		row, ok, err := r.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, cloneRow(row))
	}
}

// cloneRow copies a row so callers may retain it across Next calls.
func cloneRow(r plan.Row) plan.Row { return append(plan.Row(nil), r...) }

// Run executes a physical plan and returns a streaming result.
func Run(p *optimizer.Plan, ctx *Context) (*Result, error) {
	in, err := vbuild(p.Root, ctx)
	if err != nil {
		return nil, err
	}
	return newResult(p, in), nil
}

func newResult(p *optimizer.Plan, in batchIterator) *Result {
	r := &Result{in: in}
	for i, c := range p.Query.Select {
		if !c.Hidden {
			r.visible = append(r.visible, i)
			r.Columns = append(r.Columns, c.Name)
		}
	}
	r.row = make(plan.Row, len(r.visible))
	return r
}

// rowBytes approximates the in-memory size of a row for spill accounting.
func rowBytes(r plan.Row) int64 {
	var n int64
	for _, v := range r {
		if v.Kind == types.KindString {
			n += int64(len(v.S)) + 4
		} else {
			n += 10
		}
	}
	return n
}

// encodeKeyAppend appends a byte encoding of vals to buf, letting callers
// look up map entries via m[string(buf)] without materializing a string
// per row. Distinct values encode distinctly and NULLs all alike, so
// group-by treats them as one group; join code must check for NULL keys
// separately (NULL never matches in joins). A FLOAT encodes its bits, with
// −0.0 folded into 0.0 and every NaN into one.
func encodeKeyAppend(buf []byte, vals []types.Value) []byte {
	for _, v := range vals {
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case types.KindString:
			buf = appendUint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		case types.KindFloat:
			f := v.F
			switch {
			case f == 0:
				f = 0
			case math.IsNaN(f):
				f = math.NaN()
			}
			buf = appendUint(buf, math.Float64bits(f))
		default:
			buf = appendUint(buf, uint64(v.I))
		}
	}
	return buf
}

func appendUint(b []byte, u uint64) []byte {
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// floatInt reports the int64 an integral FLOAT in int64 range equals.
func floatInt(f float64) (int64, bool) {
	if f >= math.MinInt64 && f < math.MaxInt64 && f == math.Trunc(f) {
		return int64(f), true
	}
	return 0, false
}

// normalizeKeyVal maps numerically equal values of different kinds to the
// same key representation so joins on int = float match correctly.
func normalizeKeyVal(v types.Value) types.Value {
	switch v.Kind {
	case types.KindDate, types.KindBool:
		return types.Value{Kind: types.KindInt, I: v.I}
	case types.KindFloat:
		if i, ok := floatInt(v.F); ok {
			return types.NewInt(i)
		}
	}
	return v
}
