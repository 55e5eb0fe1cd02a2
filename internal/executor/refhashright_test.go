package executor

import (
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// buildOuterHashJoinIter executes a hash join "in reverse" (PostgreSQL's
// Hash Right Join): the hash table is built on the smaller outer (left)
// side and probed with inner (right) rows. Matched outer rows are flagged;
// for LEFT joins, unmatched outer rows are emitted null-extended after the
// probe stream is drained. Output column order is unchanged (outer columns
// first).
type buildOuterHashJoinIter struct {
	ctx  *Context
	node *optimizer.HashJoin

	right     iterator
	leftKeys  []rowEval
	rightKeys []rowEval
	residual  func(plan.Row) (bool, error)

	table    map[string][]*outerEntry
	nullKeys []*outerEntry // outer rows with NULL keys (LEFT join tail)
	allRows  []*outerEntry // emission order for the unmatched tail
	built    bool

	bucket    []*outerEntry
	bucketIdx int
	probeRow  plan.Row
	combined  plan.Row
	keyBuf    []types.Value

	tailIdx   int
	rightDone bool
	done      bool
}

type outerEntry struct {
	row     plan.Row
	matched bool
}

func newBuildOuterHashJoinIter(n *optimizer.HashJoin, ctx *Context) (iterator, error) {
	right, err := build(n.Right, ctx)
	if err != nil {
		return nil, err
	}
	lks := make([]rowEval, len(n.LeftKeys))
	for i, e := range n.LeftKeys {
		lks[i], err = compileRow(e, n.Left.Layout(), ctx.VM)
		if err != nil {
			right.Close()
			return nil, err
		}
	}
	rks := make([]rowEval, len(n.RightKeys))
	for i, e := range n.RightKeys {
		rks[i], err = compileRow(e, n.Right.Layout(), ctx.VM)
		if err != nil {
			right.Close()
			return nil, err
		}
	}
	residual, err := compileConjuncts(n.Residual, n.Layout(), ctx.VM)
	if err != nil {
		right.Close()
		return nil, err
	}
	return &buildOuterHashJoinIter{
		ctx: ctx, node: n, right: right,
		leftKeys: lks, rightKeys: rks, residual: residual,
		table:    make(map[string][]*outerEntry),
		combined: make(plan.Row, n.Width()),
		keyBuf:   make([]types.Value, len(lks)),
	}, nil
}

func (j *buildOuterHashJoinIter) buildTable() error {
	left, err := build(j.node.Left, j.ctx)
	if err != nil {
		return err
	}
	defer left.Close()
	var bytes int64
	for {
		row, ok, err := left.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.ctx.VM.AccountCPU(OpsPerTuple + float64(len(j.leftKeys))*OpsPerHash)
		for i, ev := range j.leftKeys {
			v, err := ev(row)
			if err != nil {
				return err
			}
			j.keyBuf[i] = v
		}
		e := &outerEntry{row: cloneRow(row)}
		j.allRows = append(j.allRows, e)
		bytes += rowBytes(e.row)
		key, hasNull := joinKey(j.keyBuf)
		if hasNull {
			j.nullKeys = append(j.nullKeys, e)
			continue
		}
		j.table[key] = append(j.table[key], e)
	}
	if float64(bytes)*HashTableOverhead > float64(j.ctx.WorkMemBytes) {
		spillPages := int(bytes / storage.PageSize)
		j.ctx.VM.AccountWrite(spillPages)
		j.ctx.VM.AccountSeqRead(spillPages)
	}
	j.built = true
	return nil
}

func (j *buildOuterHashJoinIter) Next() (plan.Row, bool, error) {
	if j.done {
		return nil, false, nil
	}
	if !j.built {
		if err := j.buildTable(); err != nil {
			return nil, false, err
		}
	}
	leftW := j.node.Left.Width()
	for !j.rightDone {
		// Drain the current bucket against the current probe row.
		for j.bucketIdx < len(j.bucket) {
			e := j.bucket[j.bucketIdx]
			j.bucketIdx++
			copy(j.combined, e.row)
			copy(j.combined[leftW:], j.probeRow)
			pass, err := j.residual(j.combined)
			if err != nil {
				return nil, false, err
			}
			if pass {
				e.matched = true
				j.ctx.VM.AccountCPU(OpsPerTuple)
				return j.combined, true, nil
			}
		}
		// Advance the probe (right/inner) side.
		row, ok, err := j.right.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.rightDone = true
			break
		}
		j.ctx.VM.AccountCPU(float64(len(j.rightKeys)) * OpsPerHash)
		for i, ev := range j.rightKeys {
			v, err := ev(row)
			if err != nil {
				return nil, false, err
			}
			j.keyBuf[i] = v
		}
		key, hasNull := joinKey(j.keyBuf)
		if hasNull {
			j.bucket = nil
		} else {
			j.bucket = j.table[key]
		}
		j.bucketIdx = 0
		j.probeRow = cloneRow(row)
	}
	// Emit the unmatched outer tail for LEFT joins.
	if j.node.Type == sql.LeftJoin {
		for j.tailIdx < len(j.allRows) {
			e := j.allRows[j.tailIdx]
			j.tailIdx++
			if e.matched {
				continue
			}
			copy(j.combined, e.row)
			for i := leftW; i < len(j.combined); i++ {
				j.combined[i] = types.Null
			}
			j.ctx.VM.AccountCPU(OpsPerTuple)
			return j.combined, true, nil
		}
	}
	j.done = true
	return nil, false, nil
}

func (j *buildOuterHashJoinIter) Close() { j.right.Close() }
