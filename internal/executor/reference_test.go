package executor

import (
	"fmt"

	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/types"
	"dbvirt/internal/vm"
)

// The reference executor: tuple-at-a-time Volcano iterators that charge the
// VM what the batch operators must charge, row by row and in the order a
// row executor issues it. It runs only under test (RunReference), where the
// differential tests require the batch executor to match it row for row,
// charge for charge and buffer-pool event for event. Its expressions are
// evaluated by plan.CompileVec on one-row batches, which
// TestCompileVecMatchesCompile pins against the scalar evaluator.

// rowEval evaluates a bound expression over one row.
type rowEval func(plan.Row) (types.Value, error)

func compileRow(e plan.Expr, lay plan.Layout, sink plan.CPUSink) (rowEval, error) {
	ev, err := plan.CompileVec(e, lay, sink)
	if err != nil {
		return nil, err
	}
	return plan.OneRow(ev), nil
}

// compileConjuncts compiles a conjunct list into one pass/fail predicate.
func compileConjuncts(conjs []plan.Conjunct, lay plan.Layout, sink plan.CPUSink) (func(plan.Row) (bool, error), error) {
	evs := make([]rowEval, len(conjs))
	for i, c := range conjs {
		ev, err := compileRow(c.E, lay, sink)
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

func newMergeJoinIter(n *optimizer.MergeJoin, ctx *Context) (iterator, error) {
	left, err := build(n.Left, ctx)
	if err != nil {
		return nil, err
	}
	right, err := build(n.Right, ctx)
	if err != nil {
		left.Close()
		return nil, err
	}
	return mergeJoinOver(n, ctx, left, right)
}

// statIter wraps an iterator, counting its output rows and attributing
// the VM usage of each Next call to the node. The delta includes the
// node's children (they run inside inner.Next), so Usage is inclusive.
type statIter struct {
	inner iterator
	stats *NodeStats
	vm    *vm.VM
}

func (s *statIter) Next() (plan.Row, bool, error) {
	before := s.vm.Snapshot()
	row, ok, err := s.inner.Next()
	s.stats.Usage = s.stats.Usage.Add(s.vm.Since(before))
	if ok {
		s.stats.Rows++
	}
	return row, ok, err
}

func (s *statIter) Close() { s.inner.Close() }

// rowBatches hands a row iterator's output on as one-row batches, so a
// Result can stream it.
type rowBatches struct {
	in iterator
	b  plan.Batch
}

func (r *rowBatches) NextBatch(int) (*plan.Batch, bool, error) {
	row, ok, err := r.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	r.b.Reset(len(row))
	r.b.AppendRow(row)
	return &r.b, true, nil
}

func (r *rowBatches) Close() { r.in.Close() }

// encodeKey builds a hashable string key from values (encodeKeyAppend's
// encoding).
func encodeKey(vals []types.Value) string {
	return string(encodeKeyAppend(make([]byte, 0, 16*len(vals)), vals))
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
