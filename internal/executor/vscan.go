package executor

import (
	"dbvirt/internal/buffer"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// Zone-analyzable conjunct forms. For these the per-row CPU charge of an
// evaluation is statically known, which is what lets a page's predicate
// work be charged in bulk when the zone map proves its outcome.
const (
	zfNone    = iota // not analyzable
	zfConst          // constant conjunct
	zfCmp            // <col> cmp <const> (operands possibly flipped)
	zfBetween        // <col> [NOT] BETWEEN <const> AND <const>
)

type zoneConj struct {
	form      int
	ops       float64 // charge per row for one evaluation of this conjunct
	col       int     // column offset (zfCmp, zfBetween)
	op        sql.BinaryOp
	k, lo, hi types.Value
	notB      bool
	constPass bool // zfConst: conjunct truthy
}

// analyzeZoneConj classifies one pushed-down conjunct for zone-map
// reasoning. Unrecognized shapes are zfNone and end the analyzable prefix.
func analyzeZoneConj(e plan.Expr, lay plan.Layout) zoneConj {
	switch x := e.(type) {
	case *plan.Const:
		return zoneConj{form: zfConst, constPass: plan.Truthy(x.Val)}
	case *plan.Bin:
		if !x.Op.Comparison() {
			return zoneConj{}
		}
		if cr, ok := x.L.(*plan.ColRef); ok {
			if c, ok2 := x.R.(*plan.Const); ok2 {
				if off, err := lay.Offset(cr); err == nil {
					return zoneConj{form: zfCmp, ops: plan.OpsPerOperator, col: off, op: x.Op, k: c.Val}
				}
			}
		}
		if c, ok := x.L.(*plan.Const); ok {
			if cr, ok2 := x.R.(*plan.ColRef); ok2 {
				if off, err := lay.Offset(cr); err == nil {
					return zoneConj{form: zfCmp, ops: plan.OpsPerOperator, col: off, op: x.Op.Flip(), k: c.Val}
				}
			}
		}
	case *plan.Between:
		cr, ok := x.E.(*plan.ColRef)
		if !ok {
			return zoneConj{}
		}
		lo, ok1 := x.Lo.(*plan.Const)
		hi, ok2 := x.Hi.(*plan.Const)
		if !ok1 || !ok2 {
			return zoneConj{}
		}
		if off, err := lay.Offset(cr); err == nil {
			return zoneConj{form: zfBetween, ops: 2 * plan.OpsPerOperator, col: off, lo: lo.Val, hi: hi.Val, notB: x.NotB}
		}
	}
	return zoneConj{}
}

// zoneAllFail reports whether the conjunct provably evaluates to not-true
// for every live row of a page with the given zone.
func zoneAllFail(zc *zoneConj, z *storage.Zone) bool {
	switch zc.form {
	case zfConst:
		return !zc.constPass
	case zfCmp:
		if zc.k.IsNull() || z.NonNulls == 0 {
			return true // every evaluation yields NULL, which is not true
		}
		if !z.Ordered {
			return false
		}
		cMin, ok1 := types.Compare(z.Min, zc.k)
		cMax, ok2 := types.Compare(z.Max, zc.k)
		if !ok1 || !ok2 {
			return false
		}
		switch zc.op {
		case sql.OpEq:
			return cMin > 0 || cMax < 0
		case sql.OpNe:
			return cMin == 0 && cMax == 0
		case sql.OpLt:
			return cMin >= 0
		case sql.OpLe:
			return cMin > 0
		case sql.OpGt:
			return cMax <= 0
		case sql.OpGe:
			return cMax < 0
		}
		return false
	case zfBetween:
		if zc.lo.IsNull() || zc.hi.IsNull() || z.NonNulls == 0 {
			return true
		}
		if !z.Ordered {
			return false
		}
		cMaxLo, ok1 := types.Compare(z.Max, zc.lo)
		cMinHi, ok2 := types.Compare(z.Min, zc.hi)
		cMinLo, ok3 := types.Compare(z.Min, zc.lo)
		cMaxHi, ok4 := types.Compare(z.Max, zc.hi)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return false
		}
		inside := cMinLo >= 0 && cMaxHi <= 0 // all values within [lo, hi]
		outside := cMaxLo < 0 || cMinHi > 0  // all values outside [lo, hi]
		if z.Nulls > 0 {
			// NULL rows fail BETWEEN but pass NOT BETWEEN only as NULL
			// (not true), so they fail either form; the non-null rows
			// still need the range proof below.
		}
		if zc.notB {
			return inside
		}
		return outside
	}
	return false
}

// zoneAllPass reports whether the conjunct provably evaluates to true for
// every live row of the page — the condition for the analyzable prefix to
// extend past it.
func zoneAllPass(zc *zoneConj, z *storage.Zone) bool {
	switch zc.form {
	case zfConst:
		return zc.constPass
	case zfCmp:
		if z.Nulls > 0 || z.NonNulls == 0 || zc.k.IsNull() || !z.Ordered {
			return false
		}
		cMin, ok1 := types.Compare(z.Min, zc.k)
		cMax, ok2 := types.Compare(z.Max, zc.k)
		if !ok1 || !ok2 {
			return false
		}
		switch zc.op {
		case sql.OpEq:
			return cMin == 0 && cMax == 0
		case sql.OpNe:
			return cMax < 0 || cMin > 0
		case sql.OpLt:
			return cMax < 0
		case sql.OpLe:
			return cMax <= 0
		case sql.OpGt:
			return cMin > 0
		case sql.OpGe:
			return cMin >= 0
		}
		return false
	case zfBetween:
		if z.Nulls > 0 || z.NonNulls == 0 || zc.lo.IsNull() || zc.hi.IsNull() || !z.Ordered {
			return false
		}
		cMinLo, ok1 := types.Compare(z.Min, zc.lo)
		cMaxHi, ok2 := types.Compare(z.Max, zc.hi)
		cMaxLo, ok3 := types.Compare(z.Max, zc.lo)
		cMinHi, ok4 := types.Compare(z.Min, zc.hi)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return false
		}
		inside := cMinLo >= 0 && cMaxHi <= 0
		outside := cMaxLo < 0 || cMinHi > 0
		if zc.notB {
			return outside
		}
		return inside
	}
	return false
}

// vSeqScan is the vectorized sequential scan. It pins one heap page at a
// time (the same Fetch/Unpin sequence as the tuple scan), reads its cached
// columnar block, and either:
//
//   - skips the page: if the zone maps prove that every live row passes
//     conjuncts 0..j-1 and fails conjunct j, the exact CPU the tuple scan
//     would have spent is charged in bulk (rows × (OpsPerTuple + the
//     prefix's evaluation charges)) and no per-row work happens; or
//   - emits one batch for the page: OpsPerTuple per live row plus the
//     vectorized conjunct cascade, whose charges mirror scalar early exit.
//
// Skipping is charge-transparent: the page is still fetched (identical
// simulated I/O and buffer state); only the host-side row work disappears.
//
// Under a row budget of n the scan works through the page in windows of at
// most n visible rows: n survivors need at least n examined rows, so no
// window charges a row the tuple scan would not have reached, and no later
// page is fetched once the budget is met. A page the zone maps reject is
// still skipped whole — the tuple scan finds no survivor on it either.
type vSeqScan struct {
	ctx    *Context
	node   *optimizer.SeqScan
	pages  uint32
	pageNo uint32
	frame  *buffer.Frame // the pinned page; nil between pages

	conj  *vecConjuncts
	zones []zoneConj
	verd  []int8

	blk      *storage.ColBlock // the pinned page's block; nil before the first page and between pages
	pos      int               // first row of blk not yet examined
	b        plan.Batch
	selBuf   []int
	irrOut   plan.Batch
	budgeted bool // some NextBatch call carried a finite budget
	closed   bool
}

func newVSeqScan(n *optimizer.SeqScan, ctx *Context) (*vSeqScan, error) {
	conj, err := compileVecConjuncts(n.Filter, n.Layout(), ctx.VM)
	if err != nil {
		return nil, err
	}
	zones := make([]zoneConj, len(n.Filter))
	for i, c := range n.Filter {
		zones[i] = analyzeZoneConj(c.E, n.Layout())
	}
	return &vSeqScan{
		ctx:   ctx,
		node:  n,
		pages: ctx.Pool.NumPages(n.Rel.Table.Heap.FileID()),
		conj:  conj,
		zones: zones,
	}, nil
}

// block returns the columnar form of the pinned page. Only a page the
// table's block cache does not hold has its bytes read and decoded.
func (s *vSeqScan) block() (*storage.ColBlock, error) {
	cache := s.node.Rel.Table.Blocks
	if blk := cache.Get(s.pageNo); blk != nil {
		mBlockCacheHits.Inc()
		return blk, nil
	}
	data, err := s.ctx.Pool.Data(s.frame)
	if err != nil {
		return nil, err
	}
	blk := storage.BuildColBlock(storage.NewSlottedPage(data))
	mBlocksDecoded.Inc()
	cache.Put(s.pageNo, blk)
	return blk, nil
}

// Per-page conjunct verdicts from the zone maps.
const (
	vUnknown = int8(iota) // must be evaluated row by row
	vAllPass              // provably true for every live row
	vAllFail              // provably not-true for every live row
)

// pageVerdicts classifies every analyzable conjunct against the page's
// zones into s.verd. Verdicts are usable at any cascade position: a decided
// conjunct's evaluation is replaced by its exact bulk charge (the per-row
// cost of these forms is statically known), so the cascade's totals stay
// bit-identical to scalar evaluation.
func (s *vSeqScan) pageVerdicts(blk *storage.ColBlock) {
	if cap(s.verd) < len(s.zones) {
		s.verd = make([]int8, len(s.zones))
	}
	s.verd = s.verd[:len(s.zones)]
	for i := range s.zones {
		s.verd[i] = vUnknown
		zc := &s.zones[i]
		if zc.form == zfNone || blk.Zones == nil {
			continue
		}
		var z *storage.Zone
		if zc.form != zfConst {
			if zc.col >= len(blk.Zones) {
				continue
			}
			z = &blk.Zones[zc.col]
		}
		if zoneAllFail(zc, z) {
			s.verd[i] = vAllFail
		} else if zoneAllPass(zc, z) {
			s.verd[i] = vAllPass
		}
	}
}

// zoneSkip walks the conjunct verdicts from the front. If some conjunct
// provably fails on every row while all earlier ones provably pass, the
// whole page is skipped and the exact bulk CPU charge is returned.
func (s *vSeqScan) zoneSkip(blk *storage.ColBlock, verd []int8) (bool, float64) {
	if blk.Rows == 0 || len(s.zones) == 0 {
		return false, 0
	}
	var prefixOps float64
	for i, v := range verd {
		switch v {
		case vAllFail:
			rows := float64(blk.Rows)
			return true, rows * (OpsPerTuple + prefixOps + s.zones[i].ops)
		case vAllPass:
			prefixOps += s.zones[i].ops
		default:
			return false, 0
		}
	}
	// Every conjunct passes on every row: not a skip, but the cascade
	// below charges each conjunct in bulk without touching any row.
	return false, 0
}

// applyCascade runs the conjunct cascade with zone verdicts: decided
// conjuncts charge ops × |survivors| in bulk (exactly what evaluating them
// on the surviving rows would charge, since every live row shares the
// outcome) and skip evaluation; undecided ones run vectorized as usual.
func (s *vSeqScan) applyCascade(b *plan.Batch, sel []int, verd []int8) ([]int, error) {
	cur := sel
	for ci, pred := range s.conj.preds {
		if len(cur) == 0 {
			return cur, nil
		}
		switch verd[ci] {
		case vAllPass:
			s.ctx.VM.AccountCPU(s.zones[ci].ops * float64(len(cur)))
			continue
		case vAllFail:
			s.ctx.VM.AccountCPU(s.zones[ci].ops * float64(len(cur)))
			return cur[:0], nil
		}
		var err error
		if cur, err = pred(b, cur); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (s *vSeqScan) NextBatch(budget int) (*plan.Batch, bool, error) {
	if budget != noBudget {
		s.budgeted = true
	}
	for !s.closed {
		if s.blk == nil {
			if s.frame != nil {
				s.unpin()
				s.pageNo++
			}
			if s.pageNo >= s.pages {
				s.closed = true
				break
			}
			id := storage.PageID{File: s.node.Rel.Table.Heap.FileID(), Page: s.pageNo}
			var err error
			if s.frame, err = s.ctx.Pool.Pin(id, storage.SeqHint); err == nil {
				s.blk, err = s.block()
			}
			if err != nil {
				s.unpin()
				s.closed = true
				return nil, false, err
			}
			s.pos = 0
			s.pageVerdicts(s.blk)
		}
		b, err := s.processBlock(budget)
		if err != nil {
			return nil, false, err
		}
		if b != nil {
			return b, true, nil
		}
	}
	return nil, false, nil
}

// processBlock charges and filters the next window of the pinned page: all
// of it without a budget, else its next budget visible rows. It returns the
// window's survivors as a batch, or nil when there are none (the caller
// then continues with the next window or page).
func (s *vSeqScan) processBlock(budget int) (*plan.Batch, error) {
	blk := s.blk
	if blk.RowData != nil {
		return s.nextIrregular()
	}
	if s.pos >= blk.Rows {
		return nil, s.endPage()
	}
	vis := s.ctx.Vis
	if s.pos == 0 && vis == nil {
		// The page-skip bulk charge covers every live row; with a
		// visibility filter only the visible subset is charged, so the
		// skip is disabled and the cascade handles the page (its bulk
		// verdicts charge per survivor, which stays exact).
		if skip, charge := s.zoneSkip(blk, s.verd); skip {
			s.ctx.VM.AccountCPU(charge)
			mPagesSkipped.Inc()
			s.pos = blk.Rows
			return nil, nil
		}
	}
	s.b.Cols = blk.Cols
	s.b.N = blk.Rows
	s.b.Sel = nil
	// sel is the window's rows; nil stands for the whole page.
	var sel []int
	n := blk.Rows
	whole := s.pos == 0 && budget >= blk.Rows
	switch {
	case vis != nil:
		// Visibility is matched on slot numbers exactly as the tuple scan
		// does, before any per-tuple charge.
		sel = growSlice(s.selBuf, blk.Rows)[:0]
		fid := s.node.Rel.Table.Heap.FileID()
		i := s.pos
		for ; i < blk.Rows && len(sel) < budget; i++ {
			if vis(fid, storage.TID{Page: s.pageNo, Slot: blk.Slots[i]}) {
				sel = append(sel, i)
			}
		}
		s.pos, n = i, len(sel)
		s.selBuf = sel[:cap(sel)]
	case whole:
		s.pos = blk.Rows
	default:
		n = min(blk.Rows-s.pos, budget)
		sel = growSlice(s.selBuf, n)
		for k := range sel {
			sel[k] = s.pos + k
		}
		s.selBuf = sel
		s.pos += n
	}
	s.ctx.VM.AccountCPU(OpsPerTuple * float64(n))
	if n == 0 {
		return nil, nil
	}
	if len(s.conj.preds) > 0 {
		if sel == nil {
			sel = liveSel(&s.b, &s.selBuf)
		}
		var err error
		if sel, err = s.applyCascade(&s.b, sel, s.verd); err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			return nil, nil
		}
	}
	if sel != nil && len(sel) < blk.Rows {
		s.b.Sel = sel
	}
	return &s.b, nil
}

// endPage leaves the exhausted page. A decode error partway through the
// page surfaces here, after the rows before the bad slot have been emitted
// and with the page already unpinned, as in the tuple scan.
func (s *vSeqScan) endPage() error {
	err := s.blk.Err
	s.blk = nil
	if err != nil {
		s.unpin()
		s.closed = true
	}
	return err
}

// nextIrregular runs the conjunct cascade over a row-decoded page one row
// at a time, emitting the next passing row as a batch of its own (the rows'
// widths may differ).
func (s *vSeqScan) nextIrregular() (*plan.Batch, error) {
	blk := s.blk
	fid := s.node.Rel.Table.Heap.FileID()
	for s.pos < len(blk.RowData) {
		ri := s.pos
		s.pos++
		if s.ctx.Vis != nil && !s.ctx.Vis(fid, storage.TID{Page: s.pageNo, Slot: blk.Slots[ri]}) {
			continue
		}
		s.ctx.VM.AccountCPU(OpsPerTuple)
		s.irrOut.LoadRow(plan.Row(blk.RowData[ri]))
		s.selBuf = append(s.selBuf[:0], 0)
		sel, err := s.conj.apply(&s.irrOut, s.selBuf)
		if err != nil {
			return nil, err
		}
		if len(sel) > 0 {
			return &s.irrOut, nil
		}
	}
	return nil, s.endPage()
}

// tid returns the heap TID of physical row i of the batch returned last.
func (s *vSeqScan) tid(i int) storage.TID {
	if s.blk.RowData != nil {
		i = s.pos - 1 // an irregular page's rows come one per batch
	}
	return storage.TID{Page: s.pageNo, Slot: s.blk.Slots[i]}
}

func (s *vSeqScan) unpin() {
	if s.frame != nil {
		s.ctx.Pool.Release(s.frame)
		s.frame = nil
	}
}

func (s *vSeqScan) Close() {
	if s.budgeted && !s.closed {
		mLimitStops.Inc()
	}
	s.unpin()
	s.closed = true
}

// vSubquery exposes a derived table's visible columns: a pure column
// remap sharing the input's vectors and selection, with no copying.
type vSubquery struct {
	input   batchIterator
	visible []int
	out     plan.Batch
}

func newVSubquery(n *optimizer.SubqueryScan, ctx *Context) (batchIterator, error) {
	input, err := vbuild(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	return &vSubquery{input: input, visible: n.Visible}, nil
}

func (s *vSubquery) NextBatch(budget int) (*plan.Batch, bool, error) {
	b, ok, err := s.input.NextBatch(budget)
	if err != nil || !ok {
		return nil, false, err
	}
	if cap(s.out.Cols) < len(s.visible) {
		s.out.Cols = make([]types.Vec, len(s.visible))
	}
	s.out.Cols = s.out.Cols[:len(s.visible)]
	for i, idx := range s.visible {
		s.out.Cols[i] = b.Cols[idx]
	}
	s.out.Sel = b.Sel
	s.out.N = b.N
	return &s.out, true, nil
}

func (s *vSubquery) Close() { s.input.Close() }

// vFilter applies residual predicates by narrowing the selection vector.
type vFilter struct {
	input  batchIterator
	conj   *vecConjuncts
	selBuf []int
}

func newVFilter(n *optimizer.FilterNode, ctx *Context) (batchIterator, error) {
	input, err := vbuild(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	conj, err := compileVecConjuncts(n.Conds, n.Layout(), ctx.VM)
	if err != nil {
		input.Close()
		return nil, err
	}
	return &vFilter{input: input, conj: conj}, nil
}

func (f *vFilter) NextBatch(budget int) (*plan.Batch, bool, error) {
	for {
		b, ok, err := f.input.NextBatch(budget)
		if err != nil || !ok {
			return nil, false, err
		}
		sel := liveSel(b, &f.selBuf)
		sel, err = f.conj.apply(b, sel)
		if err != nil {
			return nil, false, err
		}
		if len(sel) == 0 {
			continue
		}
		b.Sel = sel
		return b, true, nil
	}
}

func (f *vFilter) Close() { f.input.Close() }

// vProject evaluates the output expressions column-wise; each output
// column is whatever vector its expression yields (a lane, an aliased input
// column, or boxed values).
type vProject struct {
	input  batchIterator
	evs    []plan.VecEval
	out    plan.Batch
	selBuf []int
}

func newVProject(n *optimizer.Project, ctx *Context) (batchIterator, error) {
	input, err := vbuild(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	evs := make([]plan.VecEval, len(n.Cols))
	for i, c := range n.Cols {
		evs[i], err = plan.CompileVec(c.E, n.Input.Layout(), ctx.VM)
		if err != nil {
			input.Close()
			return nil, err
		}
	}
	return &vProject{input: input, evs: evs}, nil
}

func (p *vProject) NextBatch(budget int) (*plan.Batch, bool, error) {
	for {
		b, ok, err := p.input.NextBatch(budget)
		if err != nil || !ok {
			return nil, false, err
		}
		sel := liveSel(b, &p.selBuf)
		n := len(sel)
		if n == 0 {
			continue
		}
		if p.out.Cols == nil {
			p.out.Cols = make([]types.Vec, len(p.evs))
		}
		for i, ev := range p.evs {
			if err := ev(b, sel, &p.out.Cols[i]); err != nil {
				return nil, false, err
			}
		}
		p.out.N, p.out.Sel = n, nil // a consumer may have narrowed the last batch
		return &p.out, true, nil
	}
}

func (p *vProject) Close() { p.input.Close() }

// vLimit truncates the stream. It hands its remaining count down as the
// row budget, so everything below it stops where the tuple executor's
// LIMIT stops pulling.
type vLimit struct {
	input batchIterator
	left  int64
}

func newVLimit(n *optimizer.Limit, ctx *Context) (batchIterator, error) {
	input, err := vbuild(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	return &vLimit{input: input, left: n.N}, nil
}

func (l *vLimit) NextBatch(budget int) (*plan.Batch, bool, error) {
	if l.left <= 0 {
		return nil, false, nil
	}
	b, ok, err := l.input.NextBatch(int(min(int64(budget), l.left)))
	if err != nil || !ok {
		return nil, false, err
	}
	l.left -= int64(b.Len())
	return b, true, nil
}

func (l *vLimit) Close() { l.input.Close() }

// vDistinct removes duplicate rows over the leading visible columns,
// narrowing the selection to first occurrences.
type vDistinct struct {
	ctx     *Context
	input   batchIterator
	visible int
	seen    map[string]bool
	// intSeen is the fast path for a single KindInt column; the byte-coded
	// keys in seen carry a kind byte, so the partitions never collide.
	intSeen    map[int64]bool
	keyBuf     []types.Value
	keyScratch []byte
	selBuf     []int
}

func newVDistinct(n *optimizer.Distinct, ctx *Context) (batchIterator, error) {
	input, err := vbuild(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	return &vDistinct{
		ctx: ctx, input: input, visible: n.VisibleCols,
		seen: make(map[string]bool), intSeen: make(map[int64]bool),
	}, nil
}

func (d *vDistinct) NextBatch(budget int) (*plan.Batch, bool, error) {
	for {
		b, ok, err := d.input.NextBatch(budget)
		if err != nil || !ok {
			return nil, false, err
		}
		sel := liveSel(b, &d.selBuf)
		// The tuple path hashes every input row, duplicates included.
		d.ctx.VM.AccountCPU(float64(d.visible) * OpsPerHash * float64(len(sel)))
		d.keyBuf = growSlice(d.keyBuf, d.visible)
		kept := 0
		for _, i := range sel {
			if d.visible == 1 {
				if v := b.Cols[0].Get(i); v.Kind == types.KindInt {
					if d.intSeen[v.I] {
						continue
					}
					d.intSeen[v.I] = true
					sel[kept] = i
					kept++
					continue
				}
			}
			for c := 0; c < d.visible; c++ {
				d.keyBuf[c] = b.Cols[c].Get(i)
			}
			key := encodeKeyAppend(d.keyScratch[:0], d.keyBuf)
			d.keyScratch = key
			if d.seen[string(key)] {
				continue
			}
			d.seen[string(key)] = true
			sel[kept] = i
			kept++
		}
		if kept == 0 {
			continue
		}
		b.Sel = sel[:kept]
		return b, true, nil
	}
}

func (d *vDistinct) Close() { d.input.Close() }
