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
// value, applying the same normalization as normalizeKeyVal (dates, bools, and
// integral floats fold to their integer value). ok=false routes the value
// to the byte-encoded table instead; the split is deterministic, so build
// and probe sides always agree on which table a key lives in.
func intKeyVal(v types.Value) (int64, bool) {
	switch v.Kind {
	case types.KindInt, types.KindDate, types.KindBool:
		return v.I, true
	case types.KindFloat:
		return floatInt(v.F)
	}
	return 0, false
}

// joinBuild is the build side of a hash join: the rows of the build input
// that can still matter, appended batch by batch to typed columns — only
// the columns the join emits or its residual reads — behind a table from
// join key to bucket. A bucket is the chain of build rows carrying one key,
// linked in arrival order, which is the order the tuple executor's buckets
// hold them in. Single-column keys that normalize to an integer live in an
// open-addressed int64 table; every other key is normalized and
// byte-encoded into a map.
type joinBuild struct {
	cols []types.Vec // per build column; one the join never reads stays empty
	need []bool      // the columns kept; nil keeps all
	rows int

	single     bool
	ints       intTable
	strs       map[string]int32
	head, tail []int32 // per bucket: first and last row of its chain, -1 while empty
	next       []int32 // per row: the next row of its bucket, -1 at the end

	keyBuf []types.Value
	bufB   []byte
}

func (t *joinBuild) init(nkeys, width int, need []bool) {
	t.cols = make([]types.Vec, width)
	t.need = need
	t.single = nkeys == 1
	t.strs = make(map[string]int32)
	t.keyBuf = make([]types.Value, nkeys)
}

// bucketOf returns the bucket of one key, or -1 when the key has a NULL
// (it can never match) or, unless insert is set, when no build row carries
// it. With insert a new key gets a new, empty bucket.
func (t *joinBuild) bucketOf(key []types.Value, insert bool) int32 {
	if t.single {
		if ik, ok := intKeyVal(key[0]); ok {
			return t.intBucket(ik, insert)
		}
	}
	for i, v := range key {
		if v.IsNull() {
			return -1
		}
		key[i] = normalizeKeyVal(v)
	}
	t.bufB = encodeKeyAppend(t.bufB[:0], key)
	bkt, ok := t.strs[string(t.bufB)]
	if !ok {
		if !insert {
			return -1
		}
		bkt = t.newBucket()
		t.strs[string(t.bufB)] = bkt
	}
	return bkt
}

func (t *joinBuild) intBucket(ik int64, insert bool) int32 {
	if !insert {
		return t.ints.find(ik)
	}
	fresh := int32(len(t.head))
	bkt := t.ints.entry(ik, fresh)
	if bkt == fresh {
		t.newBucket()
	}
	return bkt
}

func (t *joinBuild) newBucket() int32 {
	t.head, t.tail = extend(t.head, 1), extend(t.tail, 1)
	bkt := len(t.head) - 1
	t.head[bkt], t.tail[bkt] = -1, -1
	return int32(bkt)
}

// buckets resolves the bucket of each of the n key rows held, one vector
// per key column, in keys. A single key column that arrives as a NULL-free
// integer lane is hashed straight off the lane.
func (t *joinBuild) buckets(keys []types.Vec, n int, insert bool, out []int32) []int32 {
	out = growSlice(out, n)
	if t.single && keys[0].Dense() && keys[0].Kind != types.KindFloat && keys[0].Kind != types.KindString {
		for k, ik := range keys[0].I[:n] {
			out[k] = t.intBucket(ik, insert)
		}
		return out
	}
	for k := 0; k < n; k++ {
		for c := range keys {
			t.keyBuf[c] = keys[c].Get(k)
		}
		out[k] = t.bucketOf(t.keyBuf, insert)
	}
	return out
}

// add stores rows idx of b; bkts[k] is the bucket of row idx[k], -1 for a
// row that is kept without one (a NULL key on the outer side of a LEFT
// join, needed for its tail only).
func (t *joinBuild) add(b *plan.Batch, idx []int, bkts []int32) {
	for c := range t.cols {
		if t.need == nil || t.need[c] {
			t.cols[c].AppendRows(&b.Cols[c], idx)
		}
	}
	t.next = extend(t.next, len(bkts))
	for _, bkt := range bkts {
		row := int32(t.rows)
		t.rows++
		t.next[row] = -1
		if bkt < 0 {
			continue
		}
		if t.head[bkt] < 0 {
			t.head[bkt] = row
		} else {
			t.next[t.tail[bkt]] = row
		}
		t.tail[bkt] = row
	}
}

// batchBytes is rowBytes summed over rows idx of b.
func batchBytes(b *plan.Batch, idx []int) int64 {
	var n int64
	for c := range b.Cols {
		col := &b.Cols[c]
		switch {
		case col.Any != nil:
			for _, i := range idx {
				n += rowBytes(col.Any[i : i+1])
			}
		case col.Kind == types.KindString:
			for _, i := range idx {
				if col.Null != nil && col.Null[i] {
					n += 10
				} else {
					n += int64(len(col.S[i])) + 4
				}
			}
		default:
			n += 10 * int64(len(idx))
		}
	}
	return n
}

// gatherRows appends rows idx of src to dst. With nulls set, a negative
// index appends NULL: a LEFT join's extension of an unmatched row.
func gatherRows(dst, src *types.Vec, idx []int, nulls bool) {
	if !nulls {
		dst.AppendRows(src, idx)
		return
	}
	for _, i := range idx {
		if i < 0 {
			dst.AppendNulls(1)
		} else {
			dst.Append(src.Get(i))
		}
	}
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

// vHashJoin is the vectorized hash join. It builds on the right input and
// probes with the left or, when the optimizer chose BuildOuter (PostgreSQL's
// Hash Right Join), builds on the smaller left input and probes with the
// right; output columns are the left input's, then the right's, either
// way. The build side is drained batch-at-a-time with bulk charges into a
// joinBuild. Probe batches expand into candidate (probe row, build row)
// pairs; only the columns the residual reads are gathered for its
// vectorized cascade, and passing pairs are emitted in the tuple executor's
// order by typed gathers from the probe batch and the build columns.
// A LEFT join extends an unmatched probe row with NULLs right after its
// candidates, and — when the outer side is the build side — emits the build
// rows no probe row matched, null-extended, once the probe input is drained.
//
// Under a row budget the probe side is pulled one row at a time and that
// row's bucket is tested budget candidates per call (see probeWindow).
type vHashJoin struct {
	ctx       *Context
	node      *optimizer.HashJoin
	buildLeft bool // build on the left (outer) input, probe with the right
	probe     batchIterator
	probeKeys []plan.VecEval
	buildKeys []plan.VecEval
	residual  *vecConjuncts
	resCols   []int
	// Output column c comes from the build side iff buildOff <= c <
	// buildOff+buildW; probeOff is where the probe side's columns start.
	buildOff, buildW, probeOff int

	build   joinBuild
	built   bool
	matched []bool // buildLeft: the build rows some probe row has matched

	keyVecs   []types.Vec
	bkts      []int32
	selBuf    []int
	candBuild []int // per candidate pair: its build row
	candProbe []int // per candidate pair: its physical probe row
	candStart []int
	cand      plan.Batch
	candSel   []int
	pass      []bool
	outBuild  []int // per output row: its build row, -1 for a NULL extension
	outProbe  []int // per output row: its physical probe row
	out       plan.Batch
	// emit, when non-nil, flags the output columns the consumer reads;
	// the rest are left empty (see colPruner).
	emit []bool
	win  probeWindow

	probeDone bool
	tailIdx   int
	done      bool
}

// pruneOutput records the columns the consumer reads and tells the probe
// input which of its columns the join still needs: the emitted ones plus
// those its keys and residual read.
func (j *vHashJoin) pruneOutput(needed []bool) {
	j.emit = needed
	p, ok := j.probe.(colPruner)
	if !ok {
		return
	}
	probeNode, keys := j.node.Left, j.node.LeftKeys
	if j.buildLeft {
		probeNode, keys = j.node.Right, j.node.RightKeys
	}
	set := make(map[int]struct{})
	for _, e := range keys {
		if !exprCols(e, probeNode.Layout(), set) {
			return
		}
	}
	probeW := probeNode.Width()
	sub := append([]bool(nil), needed[j.probeOff:j.probeOff+probeW]...)
	for c := range set {
		sub[c] = true
	}
	for _, c := range j.resCols {
		if c >= j.probeOff && c < j.probeOff+probeW {
			sub[c-j.probeOff] = true
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

func compileVecs(es []plan.Expr, lay plan.Layout, sink plan.CPUSink) ([]plan.VecEval, error) {
	evs := make([]plan.VecEval, len(es))
	for i, e := range es {
		var err error
		if evs[i], err = plan.CompileVec(e, lay, sink); err != nil {
			return nil, err
		}
	}
	return evs, nil
}

func newVHashJoin(n *optimizer.HashJoin, ctx *Context) (batchIterator, error) {
	j := &vHashJoin{
		ctx: ctx, node: n, buildLeft: n.BuildOuter,
		resCols: residualCols(n.Residual, n.Layout(), n.Width()),
		keyVecs: make([]types.Vec, max(len(n.LeftKeys), len(n.RightKeys))),
	}
	probeNode, probeExprs, buildNode, buildExprs := n.Left, n.LeftKeys, n.Right, n.RightKeys
	j.buildOff = n.Left.Width()
	if j.buildLeft {
		probeNode, probeExprs, buildNode, buildExprs = buildNode, buildExprs, probeNode, probeExprs
		j.buildOff, j.probeOff = 0, n.Left.Width()
	}
	j.buildW = buildNode.Width()
	var err error
	if j.probe, err = vbuild(probeNode, ctx); err != nil {
		return nil, err
	}
	if j.probeKeys, err = compileVecs(probeExprs, probeNode.Layout(), ctx.VM); err == nil {
		if j.buildKeys, err = compileVecs(buildExprs, buildNode.Layout(), ctx.VM); err == nil {
			j.residual, err = compileVecConjuncts(n.Residual, n.Layout(), ctx.VM)
		}
	}
	if err != nil {
		j.probe.Close()
		return nil, err
	}
	return j, nil
}

// fromBuild reports whether output column c is a build-side column.
func (j *vHashJoin) fromBuild(c int) bool { return c >= j.buildOff && c < j.buildOff+j.buildW }

func (j *vHashJoin) buildTable() error {
	buildNode := j.node.Right
	if j.buildLeft {
		buildNode = j.node.Left
	}
	in, err := vbuild(buildNode, j.ctx)
	if err != nil {
		return err
	}
	defer in.Close()
	var need []bool
	if j.emit != nil {
		need = append([]bool(nil), j.emit[j.buildOff:j.buildOff+j.buildW]...)
		for _, c := range j.resCols {
			if j.fromBuild(c) {
				need[c-j.buildOff] = true
			}
		}
	}
	j.build.init(len(j.buildKeys), j.buildW, need)
	var bytes int64
	for {
		b, ok, err := in.NextBatch(noBudget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sel := liveSel(b, &j.selBuf)
		n := len(sel)
		j.ctx.VM.AccountCPU((OpsPerTuple + float64(len(j.buildKeys))*OpsPerHash) * float64(n))
		for i, ev := range j.buildKeys {
			if err := ev(b, sel, &j.keyVecs[i]); err != nil {
				return err
			}
		}
		j.bkts = j.build.buckets(j.keyVecs, n, true, j.bkts)
		bkts := j.bkts
		if !j.buildLeft {
			// A row with a NULL key never matches: it is neither stored
			// nor counted. (On the outer side it is both, for the tail.)
			kept := 0
			for k, bkt := range bkts {
				if bkt >= 0 {
					sel[kept], bkts[kept] = sel[k], bkt
					kept++
				}
			}
			sel, bkts = sel[:kept], bkts[:kept]
		}
		bytes += batchBytes(b, sel)
		j.build.add(b, sel, bkts)
	}
	if float64(bytes)*HashTableOverhead > float64(j.ctx.WorkMemBytes) {
		spillPages := int(bytes / storage.PageSize)
		j.ctx.VM.AccountWrite(spillPages)
		j.ctx.VM.AccountSeqRead(spillPages)
	}
	if j.buildLeft {
		j.matched = make([]bool, j.build.rows)
	}
	j.built = true
	return nil
}

// fillCand gathers the residual-referenced columns of the candidate pairs:
// build-side columns from the build columns, probe-side columns from the
// probe batch.
func (j *vHashJoin) fillCand(b *plan.Batch) {
	j.cand.Reset(j.node.Width())
	j.cand.N = len(j.candBuild)
	for _, c := range j.resCols {
		if j.fromBuild(c) {
			j.cand.Cols[c].AppendRows(&j.build.cols[c-j.buildOff], j.candBuild)
		} else {
			j.cand.Cols[c].AppendRows(&b.Cols[c-j.probeOff], j.candProbe)
		}
	}
}

// emitRows fills the output batch with the rows listed in outBuild and
// outProbe and charges for them. b is the probe batch; nil when there is
// none (the LEFT tail), and the probe side is then all NULL.
func (j *vHashJoin) emitRows(b *plan.Batch, nullExt bool) *plan.Batch {
	n := len(j.outBuild)
	j.out.Reset(j.node.Width())
	for c := range j.out.Cols {
		col := &j.out.Cols[c]
		switch {
		case j.emit != nil && !j.emit[c]:
			// Never read; left empty, it reads as NULL.
		case j.fromBuild(c):
			gatherRows(col, &j.build.cols[c-j.buildOff], j.outBuild, nullExt)
		case b == nil:
			col.AppendNulls(n)
		default:
			col.AppendRows(&b.Cols[c-j.probeOff], j.outProbe)
		}
	}
	j.out.N = n
	j.ctx.VM.AccountCPU(OpsPerTuple * float64(n))
	return &j.out
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
	left := j.node.Type == sql.LeftJoin
	for !j.probeDone {
		b := j.win.hold
		fresh := b == nil
		if fresh {
			var ok bool
			var err error
			b, ok, err = j.probe.NextBatch(pullSize(budget))
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.probeDone = true
				break
			}
			j.win = probeWindow{}
		}
		sel := liveSel(b, &j.selBuf)
		n := len(sel)
		if fresh {
			j.ctx.VM.AccountCPU(float64(len(j.probeKeys)) * OpsPerHash * float64(n))
			for i, ev := range j.probeKeys {
				if err := ev(b, sel, &j.keyVecs[i]); err != nil {
					return nil, false, err
				}
			}
			j.bkts = j.build.buckets(j.keyVecs, n, false, j.bkts)
		}
		// Expand each probe row against its bucket into candidate pairs.
		j.candBuild, j.candProbe = j.candBuild[:0], j.candProbe[:0]
		j.candStart = growSlice(j.candStart, n+1)
		more := false
		for k, i := range sel {
			j.candStart[k] = len(j.candBuild)
			if bkt := j.bkts[k]; bkt >= 0 {
				for r := j.build.head[bkt]; r >= 0; r = j.build.next[r] {
					j.candBuild = append(j.candBuild, int(r))
					j.candProbe = append(j.candProbe, i)
				}
			}
			if budget != noBudget { // the batch is this one row
				var from, to int
				from, to, more = j.win.clip(len(j.candBuild), budget)
				j.candBuild = j.candBuild[:copy(j.candBuild, j.candBuild[from:to])]
				j.candProbe = j.candProbe[:to-from]
			}
		}
		candN := len(j.candBuild)
		j.candStart[n] = candN

		// One vectorized residual cascade over all candidates. With no
		// residual every candidate passes and nothing is materialized.
		pass := j.pass[:0]
		if len(j.residual.preds) > 0 && candN > 0 {
			pass = growSlice(pass, candN)
			clear(pass)
			j.fillCand(b)
			j.candSel = growSlice(j.candSel, candN)
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

		// List the output rows in tuple order: each probe row's passing
		// candidates, then — probing with the outer side of a LEFT join —
		// its null extension if it has matched nothing.
		j.outBuild, j.outProbe = j.outBuild[:0], j.outProbe[:0]
		nullExt := false
		j.win.hold = nil
		for k, i := range sel {
			rowMatched := j.win.matched
			for c := j.candStart[k]; c < j.candStart[k+1]; c++ {
				if len(pass) > 0 && !pass[c] {
					continue
				}
				rowMatched = true
				if j.buildLeft {
					j.matched[j.candBuild[c]] = true
				}
				j.outBuild = append(j.outBuild, j.candBuild[c])
				j.outProbe = append(j.outProbe, i)
			}
			if more {
				j.win.hold, j.win.matched = b, rowMatched
				break
			}
			if !rowMatched && left && !j.buildLeft {
				j.outBuild = append(j.outBuild, -1)
				j.outProbe = append(j.outProbe, i)
				nullExt = true
			}
		}
		if len(j.outBuild) > 0 {
			return j.emitRows(b, nullExt), true, nil
		}
	}
	// The unmatched outer rows of a LEFT join built on its outer side, in
	// build order.
	if left && j.buildLeft {
		j.outBuild = j.outBuild[:0]
		budget = min(budget, plan.BatchSize)
		for ; j.tailIdx < j.build.rows && len(j.outBuild) < budget; j.tailIdx++ {
			if !j.matched[j.tailIdx] {
				j.outBuild = append(j.outBuild, j.tailIdx)
			}
		}
		if len(j.outBuild) > 0 {
			return j.emitRows(nil, false), true, nil
		}
	}
	j.done = true
	return nil, false, nil
}

func (j *vHashJoin) Close() { j.probe.Close() }

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
		// One slab per input batch instead of one allocation per row.
		w := len(b.Cols)
		slab := make([]types.Value, len(sel)*w)
		for k, i := range sel {
			r := plan.Row(slab[k*w : (k+1)*w : (k+1)*w])
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
			j.candSel = growSlice(j.candSel, candN)
			for c := range j.candSel {
				j.candSel[c] = from + c
			}
			surv = j.candSel
			if len(j.pred.preds) > 0 {
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
