package executor

import (
	"sort"

	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// intKeyVal reports the int64 fast-path key for one non-NULL join key
// value, applying the same normalization as joinKey (dates, bools, and
// integral floats fold to their integer value). ok=false routes the value
// to the byte-encoded table instead; the split is deterministic, so build
// and probe sides always agree on which table a key lives in.
func intKeyVal(v types.Value) (int64, bool) {
	switch v.Kind {
	case types.KindInt, types.KindDate, types.KindBool:
		return v.I, true
	case types.KindFloat:
		if v.F == float64(int64(v.F)) {
			return int64(v.F), true
		}
	}
	return 0, false
}

// joinTable is a join hash table with an int64 fast path: single-column
// keys that normalize to integers avoid the byte encoding and string
// hashing of the general path entirely.
type joinTable[T any] struct {
	single bool
	ints   map[int64][]T
	strs   map[string][]T
	keyBuf []types.Value
	bufB   []byte
}

func newJoinTable[T any](nkeys int) *joinTable[T] {
	return &joinTable[T]{
		single: nkeys == 1,
		ints:   make(map[int64][]T),
		strs:   make(map[string][]T),
		keyBuf: make([]types.Value, 0, nkeys),
	}
}

// encode normalizes the key values into bufB (joinKey's byte form);
// hasNull reports a NULL key, which can never match.
func (t *joinTable[T]) encode(keys []types.Value) (hasNull bool) {
	kb := append(t.keyBuf[:0], keys...)
	t.keyBuf = kb
	for i, v := range kb {
		if v.IsNull() {
			return true
		}
		kb[i] = normalizeKeyVal(v)
	}
	t.bufB = encodeKeyAppend(t.bufB[:0], kb)
	return false
}

// add inserts a row under its key values; NULL keys are rejected
// (hasNull=true) since they can never match.
func (t *joinTable[T]) add(keys []types.Value, v T) (hasNull bool) {
	if t.single {
		kv := keys[0]
		if kv.IsNull() {
			return true
		}
		if ik, ok := intKeyVal(kv); ok {
			t.ints[ik] = append(t.ints[ik], v)
			return false
		}
	}
	if t.encode(keys) {
		return true
	}
	key := string(t.bufB)
	t.strs[key] = append(t.strs[key], v)
	return false
}

// lookup returns the bucket for the key values (nil for NULL keys). The
// common paths — int64 keys and byte-encoded probes — do not allocate.
func (t *joinTable[T]) lookup(keys []types.Value) []T {
	if t.single {
		kv := keys[0]
		if kv.IsNull() {
			return nil
		}
		if ik, ok := intKeyVal(kv); ok {
			return t.ints[ik]
		}
	}
	if t.encode(keys) {
		return nil
	}
	return t.strs[string(t.bufB)]
}

// exprCols collects the column offsets an expression reads, resolved
// against lay. ok=false means the shape is not understood and the caller
// must materialize every column.
func exprCols(e plan.Expr, lay plan.Layout, set map[int]struct{}) bool {
	switch x := e.(type) {
	case *plan.Const:
		return true
	case *plan.ColRef:
		off, err := lay.Offset(x)
		if err != nil {
			return false
		}
		set[off] = struct{}{}
		return true
	case *plan.Bin:
		return exprCols(x.L, lay, set) && exprCols(x.R, lay, set)
	case *plan.Not:
		return exprCols(x.E, lay, set)
	case *plan.Neg:
		return exprCols(x.E, lay, set)
	case *plan.Between:
		return exprCols(x.E, lay, set) && exprCols(x.Lo, lay, set) && exprCols(x.Hi, lay, set)
	case *plan.In:
		if !exprCols(x.E, lay, set) {
			return false
		}
		for _, it := range x.List {
			if !exprCols(it, lay, set) {
				return false
			}
		}
		return true
	case *plan.Like:
		return exprCols(x.E, lay, set)
	case *plan.IsNull:
		return exprCols(x.E, lay, set)
	}
	return false
}

// pruneOut zeroes the vectors of columns the consumer never reads, so a
// reused output batch's stale empty-but-non-nil boxed vectors can't be
// indexed; the zero Vec reads as NULL for any row.
func pruneOut(b *plan.Batch, emit []bool) {
	if emit == nil {
		return
	}
	for col, need := range emit {
		if !need {
			b.Cols[col] = types.Vec{}
		}
	}
}

// residualCols returns the sorted column offsets read by a conjunct list,
// or (allCols(width), nil-safe) when some expression shape is unknown.
// Candidate batches only materialize these columns; the rest of the
// combined row is gathered lazily at emission.
func residualCols(conjs []plan.Conjunct, lay plan.Layout, width int) []int {
	set := make(map[int]struct{})
	for _, c := range conjs {
		if !exprCols(c.E, lay, set) {
			all := make([]int, width)
			for i := range all {
				all[i] = i
			}
			return all
		}
	}
	cols := make([]int, 0, len(set))
	for c := range set {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return cols
}

// vHashJoin is the vectorized hash join (build on the right, probe with
// the left). The build side is drained batch-at-a-time with bulk charges.
// Probe batches expand into candidate (probe row, build row) pairs; only
// the columns the residual actually reads are materialized for its
// vectorized cascade, and passing pairs are emitted in the tuple
// executor's order (each probe row's bucket matches, then its LEFT null
// extension) by gathering directly from the probe batch and build rows.
//
// Under a row budget the probe side is pulled one row at a time and that
// row's bucket is tested budget candidates per call (see probeWindow).
type vHashJoin struct {
	ctx       *Context
	node      *optimizer.HashJoin
	left      batchIterator
	leftKeys  []plan.VecEval
	rightKeys []plan.VecEval
	residual  *vecConjuncts
	resCols   []int
	table     *joinTable[plan.Row]
	built     bool
	done      bool

	keyCols   [][]types.Value
	keyBuf    []types.Value
	selBuf    []int
	candRows  []plan.Row
	candProbe []int
	candStart []int
	cand      plan.Batch
	candSel   []int
	pass      []bool
	rowBuf    plan.Row
	out       plan.Batch
	// emit, when non-nil, flags the output columns the consumer reads;
	// the rest are left empty (see colPruner).
	emit []bool
	win  probeWindow
}

// pruneOutput records the columns the consumer reads and tells the probe
// input which of its columns the join still needs: the emitted ones plus
// those its keys and residual read.
func (j *vHashJoin) pruneOutput(needed []bool) {
	j.emit = needed
	p, ok := j.left.(colPruner)
	if !ok {
		return
	}
	leftW := j.node.Left.Width()
	set := make(map[int]struct{})
	for _, e := range j.node.LeftKeys {
		if !exprCols(e, j.node.Left.Layout(), set) {
			return
		}
	}
	sub := append([]bool(nil), needed[:leftW]...)
	for c := range set {
		sub[c] = true
	}
	for _, c := range j.resCols {
		if c < leftW {
			sub[c] = true
		}
	}
	p.pruneOutput(sub)
}

// probeWindow is the state a hash join keeps between calls while it runs
// under a row budget. The probe batch then holds a single row; when its
// bucket has more candidates than the budget allows testing at once, the
// batch is held and the bucket resumed on the next call.
type probeWindow struct {
	hold    *plan.Batch // probe batch with candidates left to test; nil = pull the next one
	skip    int         // candidates of the held row already tested
	matched bool        // the held row has passed the residual at least once
}

// pullSize is what a join asks of its streaming input: everything when
// results are drained, one row at a time under a budget, because a single
// input row may already fill it.
func pullSize(budget int) int {
	if budget == noBudget {
		return noBudget
	}
	return 1
}

// clip narrows a single probe row's bucket to the candidates this call may
// test, and reports whether some are left for the next call.
func (w *probeWindow) clip(n, budget int) (from, to int, more bool) {
	from = w.skip
	to = from + min(n-from, budget)
	w.skip = to
	return from, to, to < n
}

func newVHashJoin(n *optimizer.HashJoin, ctx *Context) (batchIterator, error) {
	if n.BuildOuter {
		return newVHashJoinOuter(n, ctx)
	}
	left, err := vbuild(n.Left, ctx)
	if err != nil {
		return nil, err
	}
	lks := make([]plan.VecEval, len(n.LeftKeys))
	for i, e := range n.LeftKeys {
		lks[i], err = plan.CompileVec(e, n.Left.Layout(), ctx.VM)
		if err != nil {
			left.Close()
			return nil, err
		}
	}
	rks := make([]plan.VecEval, len(n.RightKeys))
	for i, e := range n.RightKeys {
		rks[i], err = plan.CompileVec(e, n.Right.Layout(), ctx.VM)
		if err != nil {
			left.Close()
			return nil, err
		}
	}
	residual, err := compileVecConjuncts(n.Residual, n.Layout(), ctx.VM)
	if err != nil {
		left.Close()
		return nil, err
	}
	nk := len(lks)
	if len(rks) > nk {
		nk = len(rks)
	}
	return &vHashJoin{
		ctx: ctx, node: n, left: left,
		leftKeys: lks, rightKeys: rks, residual: residual,
		resCols: residualCols(n.Residual, n.Layout(), n.Width()),
		table:   newJoinTable[plan.Row](len(rks)),
		keyCols: make([][]types.Value, nk),
		keyBuf:  make([]types.Value, len(lks)),
		rowBuf:  make(plan.Row, n.Width()),
	}, nil
}

func (j *vHashJoin) buildTable() error {
	right, err := vbuild(j.node.Right, j.ctx)
	if err != nil {
		return err
	}
	defer right.Close()
	var bytes int64
	for {
		b, ok, err := right.NextBatch(noBudget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sel := liveSel(b, &j.selBuf)
		n := len(sel)
		j.ctx.VM.AccountCPU((OpsPerTuple + float64(len(j.rightKeys))*OpsPerHash) * float64(n))
		for i, ev := range j.rightKeys {
			j.keyCols[i] = growVals(j.keyCols[i], n)
			if err := ev(b, sel, j.keyCols[i]); err != nil {
				return err
			}
		}
		for k, i := range sel {
			kb := j.keyBuf[:len(j.rightKeys)]
			for c := range j.rightKeys {
				kb[c] = j.keyCols[c][k]
			}
			stored := make(plan.Row, len(b.Cols))
			b.ReadRow(i, stored)
			if j.table.add(kb, stored) {
				continue // NULL keys never match
			}
			bytes += rowBytes(stored)
		}
	}
	if float64(bytes)*HashTableOverhead > float64(j.ctx.WorkMemBytes) {
		spillPages := int(bytes / storage.PageSize)
		j.ctx.VM.AccountWrite(spillPages)
		j.ctx.VM.AccountSeqRead(spillPages)
	}
	j.built = true
	return nil
}

// fillCand materializes the residual-referenced columns of the candidate
// pairs: probe-side columns gather from the probe batch, build-side
// columns from the stored build rows.
func (j *vHashJoin) fillCand(b *plan.Batch, leftW, width int) {
	candN := len(j.candRows)
	j.cand.Reset(width)
	j.cand.N = candN
	for _, c := range j.resCols {
		vals := growVals(j.cand.Cols[c].Any, candN)
		if c < leftW {
			col := &b.Cols[c]
			for x, i := range j.candProbe {
				vals[x] = col.Get(i)
			}
		} else {
			bc := c - leftW
			for x, r := range j.candRows {
				vals[x] = r[bc]
			}
		}
		j.cand.Cols[c].Any = vals
	}
}

func (j *vHashJoin) NextBatch(budget int) (*plan.Batch, bool, error) {
	if j.done {
		return nil, false, nil
	}
	if !j.built {
		if err := j.buildTable(); err != nil {
			return nil, false, err
		}
	}
	leftW := j.node.Left.Width()
	width := j.node.Width()
	for {
		b := j.win.hold
		fresh := b == nil
		if fresh {
			var ok bool
			var err error
			b, ok, err = j.left.NextBatch(pullSize(budget))
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.done = true
				return nil, false, nil
			}
			j.win = probeWindow{}
		}
		sel := liveSel(b, &j.selBuf)
		n := len(sel)
		if fresh {
			j.ctx.VM.AccountCPU(float64(len(j.leftKeys)) * OpsPerHash * float64(n))
			for i, ev := range j.leftKeys {
				j.keyCols[i] = growVals(j.keyCols[i], n)
				if err := ev(b, sel, j.keyCols[i]); err != nil {
					return nil, false, err
				}
			}
		}
		// Expand each probe row against its bucket into candidate pairs.
		j.candRows = j.candRows[:0]
		j.candProbe = j.candProbe[:0]
		if cap(j.candStart) < n+1 {
			j.candStart = make([]int, n+1)
		}
		j.candStart = j.candStart[:n+1]
		more := false
		for k, i := range sel {
			j.candStart[k] = len(j.candRows)
			kb := j.keyBuf[:len(j.leftKeys)]
			for c := range j.leftKeys {
				kb[c] = j.keyCols[c][k]
			}
			bucket := j.table.lookup(kb)
			if budget != noBudget {
				var from, to int
				from, to, more = j.win.clip(len(bucket), budget)
				bucket = bucket[from:to]
			}
			for _, buildRow := range bucket {
				j.candRows = append(j.candRows, buildRow)
				j.candProbe = append(j.candProbe, i)
			}
		}
		candN := len(j.candRows)
		j.candStart[n] = candN

		// One vectorized residual cascade over all candidates. With no
		// residual every candidate passes and nothing is materialized.
		pass := j.pass[:0]
		if len(j.residual.evs) > 0 && candN > 0 {
			if cap(pass) < candN {
				pass = make([]bool, candN)
			}
			pass = pass[:candN]
			for c := range pass {
				pass[c] = false
			}
			j.fillCand(b, leftW, width)
			j.candSel = growSel(j.candSel, candN)
			for c := range j.candSel {
				j.candSel[c] = c
			}
			surv, err := j.residual.apply(&j.cand, j.candSel)
			if err != nil {
				return nil, false, err
			}
			for _, c := range surv {
				pass[c] = true
			}
		}
		j.pass = pass

		// Emit in tuple order: each probe row's passing matches, then its
		// LEFT null extension. Output rows are gathered straight from the
		// probe batch and build rows.
		j.out.Reset(width)
		pruneOut(&j.out, j.emit)
		comb := j.rowBuf[:width]
		emitted := 0
		for k := range sel {
			i := sel[k]
			rowMatched := j.win.matched
			for c := j.candStart[k]; c < j.candStart[k+1]; c++ {
				if len(pass) > 0 && !pass[c] {
					continue
				}
				rowMatched = true
				if j.emit == nil {
					for col := 0; col < leftW; col++ {
						comb[col] = b.Value(i, col)
					}
					copy(comb[leftW:], j.candRows[c])
					j.out.AppendRow(comb)
				} else {
					r := j.candRows[c]
					for col, need := range j.emit {
						if !need {
							continue
						}
						if col < leftW {
							j.out.Cols[col].Append(b.Value(i, col))
						} else {
							j.out.Cols[col].Append(r[col-leftW])
						}
					}
					j.out.N++
				}
				emitted++
			}
			if more {
				j.win.hold, j.win.matched = b, rowMatched
				break
			}
			j.win.hold = nil
			if !rowMatched && j.node.Type == sql.LeftJoin {
				if j.emit == nil {
					for col := 0; col < leftW; col++ {
						comb[col] = b.Value(i, col)
					}
					for col := leftW; col < width; col++ {
						comb[col] = types.Null
					}
					j.out.AppendRow(comb)
				} else {
					for col, need := range j.emit {
						if !need {
							continue
						}
						if col < leftW {
							j.out.Cols[col].Append(b.Value(i, col))
						} else {
							j.out.Cols[col].Append(types.Null)
						}
					}
					j.out.N++
				}
				emitted++
			}
		}
		if emitted > 0 {
			j.ctx.VM.AccountCPU(OpsPerTuple * float64(emitted))
			return &j.out, true, nil
		}
	}
}

func (j *vHashJoin) Close() { j.left.Close() }

// vHashJoinOuter is the vectorized "hash right join": build on the outer
// (left) side, probe with right rows, then emit the unmatched outer tail
// null-extended for LEFT joins.
type vHashJoinOuter struct {
	ctx       *Context
	node      *optimizer.HashJoin
	right     batchIterator
	leftKeys  []plan.VecEval
	rightKeys []plan.VecEval
	residual  *vecConjuncts
	resCols   []int

	table   *joinTable[*outerEntry]
	allRows []*outerEntry
	built   bool

	keyCols   [][]types.Value
	keyBuf    []types.Value
	selBuf    []int
	candEnt   []*outerEntry
	candProbe []int
	cand      plan.Batch
	candSel   []int
	pass      []bool
	rowBuf    plan.Row
	out       plan.Batch
	// emit, when non-nil, flags the output columns the consumer reads;
	// the rest are left empty (see colPruner).
	emit []bool

	rightDone bool
	tailIdx   int
	done      bool
	win       probeWindow
}

func (j *vHashJoinOuter) pruneOutput(needed []bool) { j.emit = needed }

func newVHashJoinOuter(n *optimizer.HashJoin, ctx *Context) (batchIterator, error) {
	right, err := vbuild(n.Right, ctx)
	if err != nil {
		return nil, err
	}
	lks := make([]plan.VecEval, len(n.LeftKeys))
	for i, e := range n.LeftKeys {
		lks[i], err = plan.CompileVec(e, n.Left.Layout(), ctx.VM)
		if err != nil {
			right.Close()
			return nil, err
		}
	}
	rks := make([]plan.VecEval, len(n.RightKeys))
	for i, e := range n.RightKeys {
		rks[i], err = plan.CompileVec(e, n.Right.Layout(), ctx.VM)
		if err != nil {
			right.Close()
			return nil, err
		}
	}
	residual, err := compileVecConjuncts(n.Residual, n.Layout(), ctx.VM)
	if err != nil {
		right.Close()
		return nil, err
	}
	nk := len(lks)
	if len(rks) > nk {
		nk = len(rks)
	}
	return &vHashJoinOuter{
		ctx: ctx, node: n, right: right,
		leftKeys: lks, rightKeys: rks, residual: residual,
		resCols: residualCols(n.Residual, n.Layout(), n.Width()),
		table:   newJoinTable[*outerEntry](len(lks)),
		keyCols: make([][]types.Value, nk),
		keyBuf:  make([]types.Value, nk),
		rowBuf:  make(plan.Row, n.Width()),
	}, nil
}

func (j *vHashJoinOuter) buildTable() error {
	left, err := vbuild(j.node.Left, j.ctx)
	if err != nil {
		return err
	}
	defer left.Close()
	var bytes int64
	for {
		b, ok, err := left.NextBatch(noBudget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sel := liveSel(b, &j.selBuf)
		n := len(sel)
		j.ctx.VM.AccountCPU((OpsPerTuple + float64(len(j.leftKeys))*OpsPerHash) * float64(n))
		for i, ev := range j.leftKeys {
			j.keyCols[i] = growVals(j.keyCols[i], n)
			if err := ev(b, sel, j.keyCols[i]); err != nil {
				return err
			}
		}
		for k, i := range sel {
			stored := make(plan.Row, len(b.Cols))
			b.ReadRow(i, stored)
			e := &outerEntry{row: stored}
			j.allRows = append(j.allRows, e)
			bytes += rowBytes(stored)
			kb := j.keyBuf[:len(j.leftKeys)]
			for c := range j.leftKeys {
				kb[c] = j.keyCols[c][k]
			}
			// NULL keys are kept only for the LEFT tail.
			j.table.add(kb, e)
		}
	}
	if float64(bytes)*HashTableOverhead > float64(j.ctx.WorkMemBytes) {
		spillPages := int(bytes / storage.PageSize)
		j.ctx.VM.AccountWrite(spillPages)
		j.ctx.VM.AccountSeqRead(spillPages)
	}
	j.built = true
	return nil
}

// fillCand materializes the residual-referenced columns of the candidate
// pairs: outer columns gather from the stored build rows, probe columns
// from the probe batch.
func (j *vHashJoinOuter) fillCand(b *plan.Batch, leftW, width int) {
	candN := len(j.candEnt)
	j.cand.Reset(width)
	j.cand.N = candN
	for _, c := range j.resCols {
		vals := growVals(j.cand.Cols[c].Any, candN)
		if c < leftW {
			for x, e := range j.candEnt {
				vals[x] = e.row[c]
			}
		} else {
			col := &b.Cols[c-leftW]
			for x, i := range j.candProbe {
				vals[x] = col.Get(i)
			}
		}
		j.cand.Cols[c].Any = vals
	}
}

func (j *vHashJoinOuter) NextBatch(budget int) (*plan.Batch, bool, error) {
	if j.done {
		return nil, false, nil
	}
	if !j.built {
		if err := j.buildTable(); err != nil {
			return nil, false, err
		}
	}
	leftW := j.node.Left.Width()
	width := j.node.Width()
	comb := j.rowBuf[:width]
	for !j.rightDone {
		b := j.win.hold
		fresh := b == nil
		if fresh {
			var ok bool
			var err error
			b, ok, err = j.right.NextBatch(pullSize(budget))
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.rightDone = true
				break
			}
			j.win = probeWindow{}
		}
		sel := liveSel(b, &j.selBuf)
		n := len(sel)
		if fresh {
			j.ctx.VM.AccountCPU(float64(len(j.rightKeys)) * OpsPerHash * float64(n))
			for i, ev := range j.rightKeys {
				j.keyCols[i] = growVals(j.keyCols[i], n)
				if err := ev(b, sel, j.keyCols[i]); err != nil {
					return nil, false, err
				}
			}
		}
		j.candEnt = j.candEnt[:0]
		j.candProbe = j.candProbe[:0]
		more := false
		for k, i := range sel {
			kb := j.keyBuf[:len(j.rightKeys)]
			for c := range j.rightKeys {
				kb[c] = j.keyCols[c][k]
			}
			bucket := j.table.lookup(kb)
			if budget != noBudget {
				var from, to int
				from, to, more = j.win.clip(len(bucket), budget)
				bucket = bucket[from:to]
			}
			for _, e := range bucket {
				j.candEnt = append(j.candEnt, e)
				j.candProbe = append(j.candProbe, i)
			}
		}
		j.win.hold = nil
		if more {
			j.win.hold = b
		}
		candN := len(j.candEnt)

		pass := j.pass[:0]
		if len(j.residual.evs) > 0 && candN > 0 {
			if cap(pass) < candN {
				pass = make([]bool, candN)
			}
			pass = pass[:candN]
			for c := range pass {
				pass[c] = false
			}
			j.fillCand(b, leftW, width)
			j.candSel = growSel(j.candSel, candN)
			for c := range j.candSel {
				j.candSel[c] = c
			}
			surv, err := j.residual.apply(&j.cand, j.candSel)
			if err != nil {
				return nil, false, err
			}
			for _, c := range surv {
				pass[c] = true
			}
		}
		j.pass = pass

		j.out.Reset(width)
		pruneOut(&j.out, j.emit)
		emitted := 0
		for c := 0; c < candN; c++ {
			if len(pass) > 0 && !pass[c] {
				continue
			}
			e := j.candEnt[c]
			e.matched = true
			i := j.candProbe[c]
			if j.emit == nil {
				copy(comb, e.row)
				for col := leftW; col < width; col++ {
					comb[col] = b.Value(i, col-leftW)
				}
				j.out.AppendRow(comb)
			} else {
				for col, need := range j.emit {
					if !need {
						continue
					}
					if col < leftW {
						j.out.Cols[col].Append(e.row[col])
					} else {
						j.out.Cols[col].Append(b.Value(i, col-leftW))
					}
				}
				j.out.N++
			}
			emitted++
		}
		if emitted > 0 {
			j.ctx.VM.AccountCPU(OpsPerTuple * float64(emitted))
			return &j.out, true, nil
		}
	}
	// Unmatched outer tail for LEFT joins, in build order.
	if j.node.Type == sql.LeftJoin {
		j.out.Reset(width)
		pruneOut(&j.out, j.emit)
		emitted := 0
		budget = min(budget, plan.BatchSize)
		for j.tailIdx < len(j.allRows) && emitted < budget {
			e := j.allRows[j.tailIdx]
			j.tailIdx++
			if e.matched {
				continue
			}
			if j.emit == nil {
				copy(comb, e.row)
				for c := leftW; c < width; c++ {
					comb[c] = types.Null
				}
				j.out.AppendRow(comb)
			} else {
				for col, need := range j.emit {
					if !need {
						continue
					}
					if col < leftW {
						j.out.Cols[col].Append(e.row[col])
					} else {
						j.out.Cols[col].Append(types.Null)
					}
				}
				j.out.N++
			}
			emitted++
		}
		if emitted > 0 {
			j.ctx.VM.AccountCPU(OpsPerTuple * float64(emitted))
			return &j.out, true, nil
		}
	}
	j.done = true
	return nil, false, nil
}

func (j *vHashJoinOuter) Close() { j.right.Close() }

// vNLJoin is the vectorized nested-loops join: the inner side is
// materialized once — its predicate-referenced columns transposed into
// vectors that every candidate batch aliases — then each outer row runs
// the vectorized predicate cascade over the full inner list, with only the
// referenced outer columns broadcast per row.
type vNLJoin struct {
	ctx   *Context
	node  *optimizer.NLJoin
	outer batchIterator
	pred  *vecConjuncts
	inner []plan.Row

	resCols   []int
	innerCols [][]types.Value // keyed by output offset; nil when not referenced
	outerBufs [][]types.Value

	loaded bool
	done   bool

	b      *plan.Batch // current outer batch
	sel    []int
	k      int
	selBuf []int

	cand    plan.Batch
	candSel []int
	rowBuf  plan.Row
	out     plan.Batch
	win     probeWindow // skip and matched only: the outer row is held by k
}

func newVNLJoin(n *optimizer.NLJoin, ctx *Context) (batchIterator, error) {
	outer, err := vbuild(n.Outer, ctx)
	if err != nil {
		return nil, err
	}
	pred, err := compileVecConjuncts(n.On, n.Layout(), ctx.VM)
	if err != nil {
		outer.Close()
		return nil, err
	}
	return &vNLJoin{
		ctx: ctx, node: n, outer: outer, pred: pred,
		resCols: residualCols(n.On, n.Layout(), n.Width()),
		rowBuf:  make(plan.Row, n.Width()),
	}, nil
}

func (j *vNLJoin) load() error {
	inner, err := vbuild(j.node.Inner, j.ctx)
	if err != nil {
		return err
	}
	defer inner.Close()
	var selBuf []int
	for {
		b, ok, err := inner.NextBatch(noBudget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sel := liveSel(b, &selBuf)
		j.ctx.VM.AccountCPU(OpsPerTuple * float64(len(sel)))
		for _, i := range sel {
			r := make(plan.Row, len(b.Cols))
			b.ReadRow(i, r)
			j.inner = append(j.inner, r)
		}
	}
	// Transpose the referenced inner columns once; candidate batches alias
	// these vectors for every outer row.
	outerW := j.node.Outer.Width()
	width := j.node.Width()
	j.innerCols = make([][]types.Value, width)
	j.outerBufs = make([][]types.Value, outerW)
	for _, c := range j.resCols {
		if c < outerW {
			j.outerBufs[c] = make([]types.Value, len(j.inner))
			continue
		}
		vals := make([]types.Value, len(j.inner))
		for x, r := range j.inner {
			vals[x] = r[c-outerW]
		}
		j.innerCols[c] = vals
	}
	j.loaded = true
	return nil
}

func (j *vNLJoin) NextBatch(budget int) (*plan.Batch, bool, error) {
	if j.done {
		return nil, false, nil
	}
	if !j.loaded {
		if err := j.load(); err != nil {
			return nil, false, err
		}
	}
	outerW := j.node.Outer.Width()
	width := j.node.Width()
	comb := j.rowBuf[:width]
	for {
		if j.b == nil || j.k >= len(j.sel) {
			b, ok, err := j.outer.NextBatch(pullSize(budget))
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.done = true
				return nil, false, nil
			}
			j.b = b
			j.sel = liveSel(b, &j.selBuf)
			j.k = 0
		}
		// One outer row per iteration bounds candidate memory to the inner
		// size; the output batch carries that row's matches. Under a row
		// budget the row's inner list is tested budget candidates per call.
		i := j.sel[j.k]
		from, to, more := 0, len(j.inner), false
		if budget != noBudget {
			from, to, more = j.win.clip(len(j.inner), budget)
		}
		if !more {
			j.k++
		}
		candN := to - from
		if len(j.node.On) == 0 {
			j.ctx.VM.AccountCPU(plan.OpsPerOperator * float64(candN))
		}
		var surv []int
		if candN > 0 {
			j.candSel = growSel(j.candSel, candN)
			for c := range j.candSel {
				j.candSel[c] = from + c
			}
			surv = j.candSel
			if len(j.pred.evs) > 0 {
				// Assemble the candidate batch: referenced outer columns are
				// this row's value broadcast, inner columns alias the
				// transposed vectors.
				if cap(j.cand.Cols) < width {
					j.cand.Cols = make([]types.Vec, width)
				}
				j.cand.Cols = j.cand.Cols[:width]
				j.cand.Sel = nil
				j.cand.N = len(j.inner)
				for _, c := range j.resCols {
					if c < outerW {
						v := j.b.Value(i, c)
						buf := j.outerBufs[c]
						for x := from; x < to; x++ {
							buf[x] = v
						}
						j.cand.Cols[c] = types.Vec{Any: buf}
					} else {
						j.cand.Cols[c] = types.Vec{Any: j.innerCols[c]}
					}
				}
				var err error
				surv, err = j.pred.apply(&j.cand, surv)
				if err != nil {
					return nil, false, err
				}
			}
		}
		j.out.Reset(width)
		if len(surv) > 0 {
			for c := 0; c < outerW; c++ {
				comb[c] = j.b.Value(i, c)
			}
			for _, x := range surv {
				copy(comb[outerW:], j.inner[x])
				j.out.AppendRow(comb)
			}
		}
		matched := j.win.matched || len(surv) > 0
		if more {
			j.win.matched = matched
		} else {
			j.win = probeWindow{}
			if !matched && j.node.Type == sql.LeftJoin {
				for c := 0; c < outerW; c++ {
					comb[c] = j.b.Value(i, c)
				}
				for c := outerW; c < width; c++ {
					comb[c] = types.Null
				}
				j.out.AppendRow(comb)
			}
		}
		if j.out.N > 0 {
			j.ctx.VM.AccountCPU(OpsPerTuple * float64(j.out.N))
			return &j.out, true, nil
		}
	}
}

func (j *vNLJoin) Close() { j.outer.Close() }
