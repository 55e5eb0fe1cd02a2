package executor

import (
	"fmt"
	"math"

	"dbvirt/internal/obs"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/vm"
)

var (
	mBatchBatches   = obs.Global.Counter("executor.batch.batches")
	mBatchRows      = obs.Global.Counter("executor.batch.rows")
	mPagesSkipped   = obs.Global.Counter("executor.batch.pages_skipped")
	mBlocksDecoded  = obs.Global.Counter("executor.batch.blocks_decoded")
	mBlockCacheHits = obs.Global.Counter("executor.batch.block_cache_hits")
	// mIndexTuples counts heap tuples fetched through an index by vIndexScan
	// and vIndexNLJoin (one buffer-pool fetch each).
	mIndexTuples = obs.Global.Counter("executor.batch.index_tuples")
	// mLimitStops counts scans that a row budget ended before their input
	// did — the early stops LIMIT buys.
	mLimitStops = obs.Global.Counter("executor.batch.limit_stops")
)

// noBudget is the NextBatch argument of a consumer that drains its input.
const noBudget = math.MaxInt

// batchIterator is the vectorized operator interface. NextBatch returns a
// non-empty batch of at most budget (≥ 1) live rows, or ok=false at end of
// stream. Returned batches (and any column vectors they alias) are valid
// until the next NextBatch or Close call.
//
// A consumer that drains its input passes noBudget, and the operator may
// then work ahead of what has been consumed: totals converge once the root
// is exhausted. A finite budget means the consumer may never ask again once
// it holds that many rows (LIMIT), so the operator must have charged the
// VM and touched the buffer pool exactly as the row executor has after
// producing the rows returned so far. Returning fewer rows than the budget
// commits the consumer to pull again, so work the row executor does before
// its next row may already be done. The rule per operator kind:
//
//   - an operator whose output is a subset of its input, in order (the
//     scans' own filters, vFilter, vDistinct), and a 1:1 operator (vProject,
//     vSubquery) pass the budget down unchanged: n survivors need at least
//     n inputs, so a window of n input rows never overshoots;
//   - an operator that charges per emitted row (vSort, vHashAgg) emits no
//     more than the budget;
//   - a join pulls its streaming input one row at a time while the budget
//     is finite and tests at most that many candidate pairs per call.
type batchIterator interface {
	NextBatch(budget int) (*plan.Batch, bool, error)
	Close()
}

// vbuild constructs the batch operator tree for a plan node, wrapping each
// operator with a statBatch when statistics are collected.
func vbuild(n optimizer.Node, ctx *Context) (batchIterator, error) {
	var (
		it     batchIterator
		err    error
		before vm.Usage
	)
	if ctx.Stats != nil {
		before = ctx.VM.Snapshot()
	}
	switch x := n.(type) {
	case *optimizer.SeqScan:
		it, err = newVSeqScan(x, ctx)
	case *optimizer.IndexScan:
		it, err = newVIndexScan(x, ctx)
	case *optimizer.SubqueryScan:
		it, err = newVSubquery(x, ctx)
	case *optimizer.FilterNode:
		it, err = newVFilter(x, ctx)
	case *optimizer.Project:
		it, err = newVProject(x, ctx)
	case *optimizer.Distinct:
		it, err = newVDistinct(x, ctx)
	case *optimizer.Limit:
		it, err = newVLimit(x, ctx)
	case *optimizer.Sort:
		it, err = newVSort(x, ctx)
	case *optimizer.HashAgg:
		it, err = newVHashAgg(x, ctx)
	case *optimizer.HashJoin:
		it, err = newVHashJoin(x, ctx)
	case *optimizer.NLJoin:
		it, err = newVNLJoin(x, ctx)
	case *optimizer.IndexNLJoin:
		it, err = newVIndexNLJoin(x, ctx)
	case *optimizer.MergeJoin:
		it, err = newVMergeJoin(x, ctx)
	default:
		return nil, fmt.Errorf("executor: unknown plan node %T", n)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Stats != nil {
		it = &statBatch{inner: it, stats: ctx.Stats.opened(n, ctx.VM.Since(before)), vm: ctx.VM}
	}
	return it, nil
}

// statBatch attributes per-node rows and VM usage for EXPLAIN ANALYZE in
// batch mode. Row counts are exact — the full batch length is added, never
// a batch-granularity approximation — so `rows=` matches the tuple
// executor; "actual time" is attributed at batch granularity.
type statBatch struct {
	inner batchIterator
	stats *NodeStats
	vm    *vm.VM
}

func (s *statBatch) NextBatch(budget int) (*plan.Batch, bool, error) {
	before := s.vm.Snapshot()
	b, ok, err := s.inner.NextBatch(budget)
	s.stats.Usage = s.stats.Usage.Add(s.vm.Since(before))
	if ok {
		s.stats.Rows += int64(b.Len())
	}
	return b, ok, err
}

func (s *statBatch) Close() { s.inner.Close() }

// colPruner is implemented by batch operators that can skip materializing
// output columns no consumer reads. needed[i]==false promises the consumer
// never reads column i of this operator's output; the operator may leave
// that column's vector empty (Vec.Get then yields NULL). Pruning changes
// no charges and no live row counts — only which column values are
// physically materialized.
type colPruner interface{ pruneOutput(needed []bool) }

func (s *statBatch) pruneOutput(needed []bool) {
	if p, ok := s.inner.(colPruner); ok {
		p.pruneOutput(needed)
	}
}

// growSlice returns a slice of length n, reusing s's capacity.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// extend appends n zero elements to s, at least doubling the capacity when
// it runs out: slabs that grow to thousands of entries would otherwise be
// reallocated (and copied) dozens of times by append's 1.25x steps.
func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		grown := make([]T, len(s), max(2*cap(s), len(s)+n, 16))
		copy(grown, s)
		s = grown
	}
	return s[:len(s)+n]
}

// vecConjuncts is a compiled conjunct cascade over batches: each conjunct
// is a selection-vector predicate that narrows the rows the previous ones
// left, so the per-conjunct charges match the scalar evaluator's early exit
// exactly.
type vecConjuncts struct {
	preds []plan.VecPred
}

func compileVecConjuncts(conjs []plan.Conjunct, lay plan.Layout, sink plan.CPUSink) (*vecConjuncts, error) {
	vc := &vecConjuncts{preds: make([]plan.VecPred, len(conjs))}
	for i, c := range conjs {
		p, err := plan.CompilePred(c.E, lay, sink)
		if err != nil {
			return nil, err
		}
		vc.preds[i] = p
	}
	return vc, nil
}

// apply narrows sel (in place) to the rows passing every conjunct and
// returns the surviving prefix of sel.
func (vc *vecConjuncts) apply(b *plan.Batch, sel []int) ([]int, error) {
	for _, p := range vc.preds {
		if len(sel) == 0 {
			break
		}
		var err error
		if sel, err = p(b, sel); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// liveSel returns the batch's live physical row indexes as a writable
// slice: b.Sel when set, otherwise 0..N-1 materialized into scratch.
func liveSel(b *plan.Batch, scratch *[]int) []int {
	if b.Sel != nil {
		return b.Sel
	}
	s := growSlice(*scratch, b.N)
	for i := range s {
		s[i] = i
	}
	*scratch = s
	return s
}
