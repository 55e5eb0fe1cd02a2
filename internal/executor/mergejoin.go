package executor

import (
	"fmt"

	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/types"
)

// iterator is a row stream: the merge join's inputs and its own output.
type iterator interface {
	// Next returns the next row, or ok=false at end of stream.
	Next() (plan.Row, bool, error)
	// Close releases resources; must be idempotent.
	Close()
}

// mergeJoinIter joins two inputs sorted ascending by their key columns
// (inner joins only). Duplicate keys are handled by buffering the right
// side's current key group and replaying it for each equal left row.
type mergeJoinIter struct {
	ctx  *Context
	node *optimizer.MergeJoin

	left, right iterator
	leftRow     plan.Row
	rightRow    plan.Row // next unconsumed right row (nil when exhausted)
	rightDone   bool

	group    []plan.Row // right rows sharing groupKey
	groupKey plan.Row
	groupIdx int

	residual func(plan.Row) (bool, error)
	combined plan.Row
	done     bool
	started  bool
}

// mergeJoinOver runs the merge over two already-built row sources, which it
// owns from here on.
func mergeJoinOver(n *optimizer.MergeJoin, ctx *Context, left, right iterator) (*mergeJoinIter, error) {
	residual, err := rowConjuncts(n.Residual, n.Layout(), ctx.VM)
	if err != nil {
		left.Close()
		right.Close()
		return nil, err
	}
	return &mergeJoinIter{
		ctx: ctx, node: n, left: left, right: right, residual: residual,
		combined: make(plan.Row, n.Width()),
	}, nil
}

// rowConjuncts compiles a conjunct cascade for rows that arrive one at a
// time: each row is loaded into a one-row batch (Batch.LoadRow) and
// narrowed by the conjuncts' selection-vector predicates.
func rowConjuncts(conjs []plan.Conjunct, lay plan.Layout, sink plan.CPUSink) (func(plan.Row) (bool, error), error) {
	vc, err := compileVecConjuncts(conjs, lay, sink)
	if err != nil {
		return nil, err
	}
	var b plan.Batch
	sel := make([]int, 1)
	return func(r plan.Row) (bool, error) {
		if len(vc.preds) == 0 {
			return true, nil
		}
		b.LoadRow(r)
		sel[0] = 0
		surv, err := vc.apply(&b, sel)
		return len(surv) == 1, err
	}, nil
}

// vMergeJoin is the merge join of the batch executor. How far a merge reads
// into each input depends on the data — it stops as soon as one side runs
// out — and every operator charges for each row it hands over, so neither
// input can be pulled a batch ahead without charging rows the tuple
// executor never asks for. Both inputs are therefore pulled one row at a
// time (budget 1 makes each child exact to the row), the merge itself is
// mergeJoinIter's, and only the output is batched.
type vMergeJoin struct {
	merge *mergeJoinIter
	out   plan.Batch
}

func newVMergeJoin(n *optimizer.MergeJoin, ctx *Context) (batchIterator, error) {
	left, err := vbuild(n.Left, ctx)
	if err != nil {
		return nil, err
	}
	right, err := vbuild(n.Right, ctx)
	if err != nil {
		left.Close()
		return nil, err
	}
	merge, err := mergeJoinOver(n, ctx, &rowPuller{in: left}, &rowPuller{in: right})
	if err != nil {
		return nil, err
	}
	return &vMergeJoin{merge: merge}, nil
}

func (j *vMergeJoin) NextBatch(budget int) (*plan.Batch, bool, error) {
	budget = min(budget, plan.BatchSize)
	j.out.Reset(j.merge.node.Width())
	for j.out.N < budget {
		row, ok, err := j.merge.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		j.out.AppendRow(row)
	}
	return &j.out, j.out.N > 0, nil
}

func (j *vMergeJoin) Close() { j.merge.Close() }

// rowPuller reads a batch operator one row per call.
type rowPuller struct {
	in  batchIterator
	row plan.Row
}

func (p *rowPuller) Next() (plan.Row, bool, error) {
	b, ok, err := p.in.NextBatch(1)
	if err != nil || !ok {
		return nil, false, err
	}
	p.row = growSlice(p.row, len(b.Cols))
	b.ReadRow(b.RowIdx(0), p.row)
	return p.row, true, nil
}

func (p *rowPuller) Close() { p.in.Close() }

// keyCompare orders two rows by the join keys; a NULL key orders the row
// as "advance me" (NULLs never join). ok=false marks a NULL key on side a
// (-1) or b (+1).
func (j *mergeJoinIter) keyCompare(a plan.Row, aCols []int, b plan.Row, bCols []int) (int, error) {
	j.ctx.VM.AccountCPU(float64(len(aCols)) * OpsPerCompare)
	for i := range aCols {
		av, bv := a[aCols[i]], b[bCols[i]]
		if av.IsNull() {
			return -1, nil // push the NULL side forward
		}
		if bv.IsNull() {
			return 1, nil
		}
		c, ok := types.Compare(av, bv)
		if !ok {
			return 0, fmt.Errorf("executor: merge join keys incomparable (%s vs %s)", av.Kind, bv.Kind)
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

// rowHasNullKey reports whether any key column of the row is NULL.
func rowHasNullKey(r plan.Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// sameKey reports whether two left rows share the join key.
func (j *mergeJoinIter) sameKey(a, b plan.Row) (bool, error) {
	c, err := j.keyCompare(a, j.node.LeftCols, b, j.node.LeftCols)
	return c == 0 && !rowHasNullKey(a, j.node.LeftCols), err
}

func (j *mergeJoinIter) advanceLeft() error {
	row, ok, err := j.left.Next()
	if err != nil {
		return err
	}
	if !ok {
		j.leftRow = nil
		return nil
	}
	j.leftRow = cloneRow(row)
	return nil
}

func (j *mergeJoinIter) advanceRight() error {
	row, ok, err := j.right.Next()
	if err != nil {
		return err
	}
	if !ok {
		j.rightRow = nil
		j.rightDone = true
		return nil
	}
	j.rightRow = cloneRow(row)
	return nil
}

// fillGroup buffers all right rows equal to j.rightRow's key into group.
func (j *mergeJoinIter) fillGroup() error {
	j.group = j.group[:0]
	j.groupKey = j.rightRow
	for {
		j.group = append(j.group, j.rightRow)
		if err := j.advanceRight(); err != nil {
			return err
		}
		if j.rightRow == nil {
			return nil
		}
		c, err := j.keyCompare(j.rightRow, j.node.RightCols, j.groupKey, j.node.RightCols)
		if err != nil {
			return err
		}
		if c != 0 || rowHasNullKey(j.rightRow, j.node.RightCols) {
			return nil
		}
	}
}

func (j *mergeJoinIter) Next() (plan.Row, bool, error) {
	if j.done {
		return nil, false, nil
	}
	if !j.started {
		j.started = true
		if err := j.advanceLeft(); err != nil {
			return nil, false, err
		}
		if err := j.advanceRight(); err != nil {
			return nil, false, err
		}
	}
	leftW := j.node.Left.Width()
	for {
		// Emit from the current group.
		for j.leftRow != nil && j.groupKey != nil && j.groupIdx < len(j.group) {
			match, err := j.sameKey(j.leftRow, j.groupKey)
			if err != nil {
				return nil, false, err
			}
			if !match {
				break
			}
			r := j.group[j.groupIdx]
			j.groupIdx++
			copy(j.combined, j.leftRow)
			copy(j.combined[leftW:], r)
			pass, err := j.residual(j.combined)
			if err != nil {
				return nil, false, err
			}
			if pass {
				j.ctx.VM.AccountCPU(OpsPerTuple)
				return j.combined, true, nil
			}
		}
		// Group exhausted for this left row (or key mismatch): advance left
		// and replay the group if the key repeats.
		if j.groupKey != nil && j.leftRow != nil {
			match, err := j.sameKey(j.leftRow, j.groupKey)
			if err != nil {
				return nil, false, err
			}
			if match {
				if err := j.advanceLeft(); err != nil {
					return nil, false, err
				}
				j.groupIdx = 0
				continue
			}
		}
		if j.leftRow == nil {
			j.done = true
			return nil, false, nil
		}
		// Align the two sides.
		if j.rightRow == nil {
			// Right side fully consumed; only a live group could match, and
			// it did not: check if a later left row might match the group.
			if j.groupKey != nil {
				if err := j.advanceLeft(); err != nil {
					return nil, false, err
				}
				j.groupIdx = 0
				if j.leftRow == nil {
					j.done = true
					return nil, false, nil
				}
				continue
			}
			j.done = true
			return nil, false, nil
		}
		if rowHasNullKey(j.leftRow, j.node.LeftCols) {
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
			continue
		}
		if rowHasNullKey(j.rightRow, j.node.RightCols) {
			if err := j.advanceRight(); err != nil {
				return nil, false, err
			}
			continue
		}
		c, err := j.keyCompare(j.leftRow, j.node.LeftCols, j.rightRow, j.node.RightCols)
		if err != nil {
			return nil, false, err
		}
		switch {
		case c < 0:
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
		case c > 0:
			if err := j.advanceRight(); err != nil {
				return nil, false, err
			}
		default:
			if err := j.fillGroup(); err != nil {
				return nil, false, err
			}
			j.groupIdx = 0
		}
	}
}

func (j *mergeJoinIter) Close() {
	j.left.Close()
	j.right.Close()
}
