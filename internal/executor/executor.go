// Package executor runs physical plans produced by the optimizer using
// Volcano-style iterators. Every unit of work — tuples decoded, predicate
// operators evaluated, hash probes, sort comparisons, pages read through
// the buffer pool, and sort/hash spill I/O — is charged to the session's
// virtual machine, so the simulated execution time of a query responds to
// the VM's CPU, memory, and I/O shares exactly the way the paper's
// measured PostgreSQL-on-Xen times do.
package executor

import (
	"fmt"

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
	// Mode selects the vectorized (default) or tuple-at-a-time executor.
	// Both charge bit-identical costs to the VM.
	Mode Mode
	// Vis, when non-nil, restricts scans to tuples visible under the
	// session's snapshot. Both executor modes apply it identically, before
	// any per-tuple CPU charge.
	Vis Visibility
}

// iterator is the Volcano operator interface.
type iterator interface {
	// Next returns the next row, or ok=false at end of stream.
	Next() (plan.Row, bool, error)
	// Close releases resources; must be idempotent.
	Close()
}

// Result streams the visible output rows of a query.
type Result struct {
	Columns []string
	it      iterator
	strip   func(plan.Row) plan.Row
}

// Next returns the next output row.
func (r *Result) Next() (plan.Row, bool, error) {
	row, ok, err := r.it.Next()
	if err != nil || !ok {
		return nil, ok, err
	}
	return r.strip(row), true, nil
}

// Close releases the result's resources.
func (r *Result) Close() { r.it.Close() }

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
	var it iterator
	var err error
	if ctx.Mode == ModeBatch {
		var bit batchIterator
		bit, err = vbuild(p.Root, ctx)
		if err != nil {
			return nil, err
		}
		it = &batchRowIter{in: bit}
	} else {
		it, err = build(p.Root, ctx)
	}
	if err != nil {
		return nil, err
	}
	// Identify visible columns (hidden ORDER BY keys are stripped).
	var visible []int
	var names []string
	for i, c := range p.Query.Select {
		if !c.Hidden {
			visible = append(visible, i)
			names = append(names, c.Name)
		}
	}
	allVisible := len(visible) == len(p.Query.Select)
	strip := func(row plan.Row) plan.Row {
		if allVisible {
			return row
		}
		out := make(plan.Row, len(visible))
		for i, idx := range visible {
			out[i] = row[idx]
		}
		return out
	}
	return &Result{Columns: names, it: it, strip: strip}, nil
}

// build constructs the iterator tree for a plan node, wrapping it with a
// row counter when the context collects statistics.
func build(n optimizer.Node, ctx *Context) (iterator, error) {
	if ctx.Stats == nil {
		return buildRaw(n, ctx)
	}
	before := ctx.VM.Snapshot()
	it, err := buildRaw(n, ctx)
	if err != nil {
		return nil, err
	}
	return &statIter{inner: it, stats: ctx.Stats.opened(n, ctx.VM.Since(before)), vm: ctx.VM}, nil
}

func buildRaw(n optimizer.Node, ctx *Context) (iterator, error) {
	switch x := n.(type) {
	case *optimizer.SeqScan:
		return newSeqScanIter(x, ctx)
	case *optimizer.IndexScan:
		return newIndexScanIter(x, ctx)
	case *optimizer.SubqueryScan:
		return newSubqueryScanIter(x, ctx)
	case *optimizer.FilterNode:
		return newFilterIter(x, ctx)
	case *optimizer.NLJoin:
		return newNLJoinIter(x, ctx)
	case *optimizer.HashJoin:
		return newHashJoinIter(x, ctx)
	case *optimizer.IndexNLJoin:
		return newIndexNLJoinIter(x, ctx)
	case *optimizer.MergeJoin:
		return newMergeJoinIter(x, ctx)
	case *optimizer.Sort:
		return newSortIter(x, ctx)
	case *optimizer.HashAgg:
		return newHashAggIter(x, ctx)
	case *optimizer.Project:
		return newProjectIter(x, ctx)
	case *optimizer.Distinct:
		return newDistinctIter(x, ctx)
	case *optimizer.Limit:
		return newLimitIter(x, ctx)
	default:
		return nil, fmt.Errorf("executor: unknown plan node %T", n)
	}
}

// compileConjuncts compiles a conjunct list into one pass/fail predicate.
func compileConjuncts(conjs []plan.Conjunct, lay plan.Layout, sink plan.CPUSink) (func(plan.Row) (bool, error), error) {
	evs := make([]plan.Evaluator, len(conjs))
	for i, c := range conjs {
		ev, err := plan.Compile(c.E, lay, sink)
		if err != nil {
			return nil, err
		}
		evs[i] = ev
	}
	return func(row plan.Row) (bool, error) {
		for _, ev := range evs {
			v, err := ev(row)
			if err != nil {
				return false, err
			}
			if !plan.Truthy(v) {
				return false, nil
			}
		}
		return true, nil
	}, nil
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

// encodeKey builds a hashable string key from values. NULLs are encoded
// distinctly so group-by treats them as one group; join code must check
// for NULL keys separately (NULL never matches in joins).
func encodeKey(vals []types.Value) string {
	return string(encodeKeyAppend(make([]byte, 0, 16*len(vals)), vals))
}

// encodeKeyAppend is the allocation-free form of encodeKey: it appends the
// byte encoding to buf, letting callers look up map entries via
// m[string(buf)] without materializing a string per row.
func encodeKeyAppend(buf []byte, vals []types.Value) []byte {
	for _, v := range vals {
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case types.KindString:
			buf = appendUint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		case types.KindFloat:
			// Normalize float bits so that 2.0 == int 2 does NOT collide
			// incorrectly: keys are compared post-normalization below.
			buf = appendUint(buf, uint64(int64(v.F)))
			buf = appendUint(buf, uint64(frac(v.F)))
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

func frac(f float64) int64 { return int64((f - float64(int64(f))) * 1e9) }

// normalizeKeyVal maps numerically equal values of different kinds to the
// same key representation so joins on int = float match correctly.
func normalizeKeyVal(v types.Value) types.Value {
	switch v.Kind {
	case types.KindDate, types.KindBool:
		return types.Value{Kind: types.KindInt, I: v.I}
	case types.KindFloat:
		if v.F == float64(int64(v.F)) {
			return types.NewInt(int64(v.F))
		}
		return v
	default:
		return v
	}
}

// joinKey encodes join key values, reporting hasNull when any key is NULL
// (in which case the row cannot match).
func joinKey(vals []types.Value) (string, bool) {
	for i, v := range vals {
		if v.IsNull() {
			return "", true
		}
		vals[i] = normalizeKeyVal(v)
	}
	return encodeKey(vals), false
}
