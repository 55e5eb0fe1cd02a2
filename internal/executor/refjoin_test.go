package executor

import (
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// nljoinIter is a nested-loops join with the inner side materialized.
type nljoinIter struct {
	ctx      *Context
	node     *optimizer.NLJoin
	outer    iterator
	inner    []plan.Row
	pred     func(plan.Row) (bool, error)
	outerRow plan.Row
	innerIdx int
	matched  bool // current outer row matched at least once (LEFT join)
	done     bool
	combined plan.Row
	loaded   bool
}

func newNLJoinIter(n *optimizer.NLJoin, ctx *Context) (iterator, error) {
	outer, err := build(n.Outer, ctx)
	if err != nil {
		return nil, err
	}
	pred, err := compileConjuncts(n.On, n.Layout(), ctx.VM)
	if err != nil {
		outer.Close()
		return nil, err
	}
	return &nljoinIter{
		ctx: ctx, node: n, outer: outer, pred: pred,
		combined: make(plan.Row, n.Width()),
		innerIdx: -1,
	}, nil
}

// load materializes the inner side once.
func (j *nljoinIter) load() error {
	inner, err := build(j.node.Inner, j.ctx)
	if err != nil {
		return err
	}
	defer inner.Close()
	for {
		row, ok, err := inner.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.ctx.VM.AccountCPU(OpsPerTuple)
		j.inner = append(j.inner, cloneRow(row))
	}
	j.loaded = true
	return nil
}

func (j *nljoinIter) Next() (plan.Row, bool, error) {
	if j.done {
		return nil, false, nil
	}
	if !j.loaded {
		if err := j.load(); err != nil {
			return nil, false, err
		}
	}
	outerW := j.node.Outer.Width()
	for {
		if j.outerRow == nil {
			row, ok, err := j.outer.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.done = true
				return nil, false, nil
			}
			j.outerRow = cloneRow(row)
			j.innerIdx = 0
			j.matched = false
		}
		for j.innerIdx < len(j.inner) {
			innerRow := j.inner[j.innerIdx]
			j.innerIdx++
			copy(j.combined, j.outerRow)
			copy(j.combined[outerW:], innerRow)
			if len(j.node.On) == 0 {
				j.ctx.VM.AccountCPU(plan.OpsPerOperator)
			}
			pass, err := j.pred(j.combined)
			if err != nil {
				return nil, false, err
			}
			if pass {
				j.matched = true
				j.ctx.VM.AccountCPU(OpsPerTuple)
				return j.combined, true, nil
			}
		}
		// Inner exhausted for this outer row.
		if j.node.Type == sql.LeftJoin && !j.matched {
			copy(j.combined, j.outerRow)
			for i := outerW; i < len(j.combined); i++ {
				j.combined[i] = types.Null
			}
			j.outerRow = nil
			j.ctx.VM.AccountCPU(OpsPerTuple)
			return j.combined, true, nil
		}
		j.outerRow = nil
	}
}

func (j *nljoinIter) Close() { j.outer.Close() }

// hashJoinIter builds a hash table on the right input and probes with the
// left.
type hashJoinIter struct {
	ctx       *Context
	node      *optimizer.HashJoin
	left      iterator
	table     map[string][]plan.Row
	leftKeys  []rowEval
	rightKeys []rowEval
	residual  func(plan.Row) (bool, error)
	built     bool

	probeRow  plan.Row
	bucket    []plan.Row
	bucketIdx int
	matched   bool
	combined  plan.Row
	keyBuf    []types.Value
	done      bool
}

func newHashJoinIter(n *optimizer.HashJoin, ctx *Context) (iterator, error) {
	if n.BuildOuter {
		return newBuildOuterHashJoinIter(n, ctx)
	}
	left, err := build(n.Left, ctx)
	if err != nil {
		return nil, err
	}
	lks := make([]rowEval, len(n.LeftKeys))
	for i, e := range n.LeftKeys {
		lks[i], err = compileRow(e, n.Left.Layout(), ctx.VM)
		if err != nil {
			left.Close()
			return nil, err
		}
	}
	rks := make([]rowEval, len(n.RightKeys))
	for i, e := range n.RightKeys {
		rks[i], err = compileRow(e, n.Right.Layout(), ctx.VM)
		if err != nil {
			left.Close()
			return nil, err
		}
	}
	residual, err := compileConjuncts(n.Residual, n.Layout(), ctx.VM)
	if err != nil {
		left.Close()
		return nil, err
	}
	return &hashJoinIter{
		ctx: ctx, node: n, left: left,
		leftKeys: lks, rightKeys: rks, residual: residual,
		table:    make(map[string][]plan.Row),
		combined: make(plan.Row, n.Width()),
		keyBuf:   make([]types.Value, len(lks)),
	}, nil
}

// buildTable materializes the right (build) side into the hash table,
// charging grace-partitioning I/O when the build input exceeds work_mem.
func (j *hashJoinIter) buildTable() error {
	right, err := build(j.node.Right, j.ctx)
	if err != nil {
		return err
	}
	defer right.Close()
	var bytes int64
	for {
		row, ok, err := right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.ctx.VM.AccountCPU(OpsPerTuple + float64(len(j.rightKeys))*OpsPerHash)
		for i, ev := range j.rightKeys {
			v, err := ev(row)
			if err != nil {
				return err
			}
			j.keyBuf[i] = v
		}
		key, hasNull := joinKey(j.keyBuf)
		if hasNull {
			continue // NULL keys never match
		}
		stored := cloneRow(row)
		j.table[key] = append(j.table[key], stored)
		bytes += rowBytes(stored)
	}
	// Grace hash join spill accounting: with B batches, both inputs are
	// written out and re-read once.
	if float64(bytes)*HashTableOverhead > float64(j.ctx.WorkMemBytes) {
		spillPages := int(bytes / storage.PageSize)
		j.ctx.VM.AccountWrite(spillPages)
		j.ctx.VM.AccountSeqRead(spillPages)
	}
	j.built = true
	return nil
}

func (j *hashJoinIter) Next() (plan.Row, bool, error) {
	if j.done {
		return nil, false, nil
	}
	if !j.built {
		if err := j.buildTable(); err != nil {
			return nil, false, err
		}
	}
	leftW := j.node.Left.Width()
	for {
		// Drain the current bucket.
		for j.bucketIdx < len(j.bucket) {
			buildRow := j.bucket[j.bucketIdx]
			j.bucketIdx++
			copy(j.combined, j.probeRow)
			copy(j.combined[leftW:], buildRow)
			pass, err := j.residual(j.combined)
			if err != nil {
				return nil, false, err
			}
			if pass {
				j.matched = true
				j.ctx.VM.AccountCPU(OpsPerTuple)
				return j.combined, true, nil
			}
		}
		// Left-join null extension for the finished probe row.
		if j.probeRow != nil && j.node.Type == sql.LeftJoin && !j.matched {
			copy(j.combined, j.probeRow)
			for i := leftW; i < len(j.combined); i++ {
				j.combined[i] = types.Null
			}
			j.probeRow = nil
			j.bucket = nil
			j.ctx.VM.AccountCPU(OpsPerTuple)
			return j.combined, true, nil
		}

		// Advance the probe side.
		row, ok, err := j.left.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.done = true
			return nil, false, nil
		}
		j.ctx.VM.AccountCPU(float64(len(j.leftKeys)) * OpsPerHash)
		for i, ev := range j.leftKeys {
			v, err := ev(row)
			if err != nil {
				return nil, false, err
			}
			j.keyBuf[i] = v
		}
		j.probeRow = cloneRow(row)
		j.matched = false
		key, hasNull := joinKey(j.keyBuf)
		if hasNull {
			j.bucket = nil
		} else {
			j.bucket = j.table[key]
		}
		j.bucketIdx = 0
	}
}

func (j *hashJoinIter) Close() { j.left.Close() }

// indexNLJoinIter probes the inner relation's B+-tree per outer row.
type indexNLJoinIter struct {
	ctx       *Context
	node      *optimizer.IndexNLJoin
	outer     iterator
	keyEv     rowEval
	innerPred func(plan.Row) (bool, error)
	residual  func(plan.Row) (bool, error)
	combined  plan.Row

	outerRow plan.Row
	matches  []storage.Tuple
	matchIdx int
	matched  bool
	done     bool
}

func newIndexNLJoinIter(n *optimizer.IndexNLJoin, ctx *Context) (iterator, error) {
	outer, err := build(n.Outer, ctx)
	if err != nil {
		return nil, err
	}
	keyEv, err := compileRow(n.OuterKey, n.Outer.Layout(), ctx.VM)
	if err != nil {
		outer.Close()
		return nil, err
	}
	innerPred, err := compileConjuncts(n.InnerFilter, plan.SingleRel(n.InnerRel.Idx), ctx.VM)
	if err != nil {
		outer.Close()
		return nil, err
	}
	residual, err := compileConjuncts(n.Residual, n.Layout(), ctx.VM)
	if err != nil {
		outer.Close()
		return nil, err
	}
	return &indexNLJoinIter{
		ctx: ctx, node: n, outer: outer,
		keyEv: keyEv, innerPred: innerPred, residual: residual,
		combined: make(plan.Row, n.Width()),
	}, nil
}

// probe fetches the inner tuples matching key.
func (j *indexNLJoinIter) probe(key int64) error {
	j.matches = j.matches[:0]
	it, err := j.node.Index.Tree.SeekRange(j.ctx.Pool, key, key)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		_, tid, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.ctx.VM.AccountCPU(OpsPerIndexTuple)
		if j.ctx.Vis != nil && !j.ctx.Vis(j.node.InnerRel.Table.Heap.FileID(), tid) {
			continue
		}
		tup, err := j.node.InnerRel.Table.Heap.GetAt(j.ctx.Pool, tid, storage.RandHint)
		if err != nil {
			return err
		}
		j.ctx.VM.AccountCPU(OpsPerTuple)
		pass, err := j.innerPred(plan.Row(tup))
		if err != nil {
			return err
		}
		if pass {
			j.matches = append(j.matches, tup)
		}
	}
	return nil
}

func (j *indexNLJoinIter) Next() (plan.Row, bool, error) {
	if j.done {
		return nil, false, nil
	}
	outerW := j.node.Outer.Width()
	for {
		for j.matchIdx < len(j.matches) {
			inner := j.matches[j.matchIdx]
			j.matchIdx++
			copy(j.combined, j.outerRow)
			copy(j.combined[outerW:], inner)
			pass, err := j.residual(j.combined)
			if err != nil {
				return nil, false, err
			}
			if pass {
				j.matched = true
				j.ctx.VM.AccountCPU(OpsPerTuple)
				return j.combined, true, nil
			}
		}
		if j.outerRow != nil && j.node.Type == sql.LeftJoin && !j.matched {
			copy(j.combined, j.outerRow)
			for i := outerW; i < len(j.combined); i++ {
				j.combined[i] = types.Null
			}
			j.outerRow = nil
			j.ctx.VM.AccountCPU(OpsPerTuple)
			return j.combined, true, nil
		}

		row, ok, err := j.outer.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.done = true
			return nil, false, nil
		}
		j.outerRow = cloneRow(row)
		j.matched = false
		j.matchIdx = 0
		j.matches = j.matches[:0]
		j.ctx.VM.AccountCPU(plan.OpsPerOperator)
		kv, err := j.keyEv(j.outerRow)
		if err != nil {
			return nil, false, err
		}
		if kv.IsNull() {
			continue // NULL key matches nothing (LEFT join emits above)
		}
		k := normalizeKeyVal(kv)
		if k.Kind != types.KindInt {
			continue // non-integral key cannot match an int64 index
		}
		if err := j.probe(k.I); err != nil {
			return nil, false, err
		}
	}
}

func (j *indexNLJoinIter) Close() { j.outer.Close() }
