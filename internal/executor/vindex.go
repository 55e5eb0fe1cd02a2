package executor

import (
	"fmt"
	"math"
	"sort"

	"dbvirt/internal/buffer"
	"dbvirt/internal/index"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// indexRange returns the scan's key range with open ends widened to the
// whole int64 domain (RangeIterator only tests k > hi, so MaxInt64 cannot
// overflow).
func indexRange(n *optimizer.IndexScan) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if n.Lo != nil {
		lo = n.Lo.Key
	}
	if n.Hi != nil {
		hi = n.Hi.Key
	}
	return lo, hi
}

// tupleFetcher reads the heap tuples an index points at, one buffer-pool
// Pin/Release per tuple — the event sequence of HeapFile.GetAt, which keeps
// hits, misses and evictions identical to the tuple executor. A hit is one
// load from the pool's dense page table; pinning a run of tuples on one
// page at once would save little, since olap's index scans change page
// every 1.4 tuples on average. What it saves is the bytes: when the table's
// block cache holds the page, the tuple is a row number in the cached
// block, the page is never read, and the needed columns of a run of such
// rows are gathered lane to lane when the run ends (flush). Otherwise the
// one record is decoded. It never builds a block: a point lookup must not
// pay for decoding a whole page that the next write invalidates.
type tupleFetcher struct {
	ctx    *Context
	heap   *storage.HeapFile
	blocks *storage.BlockCache
	hint   storage.AccessHint
	// need flags the columns to materialize; nil means all of them.
	need []bool

	page    uint32 // last page looked up in blocks
	blk     *storage.ColBlock
	looked  bool
	run     []int // rows of blk fetched but not yet gathered into the output
	scratch []types.Value
}

// fetch adds the tuple at tid to out, a batch as wide as the table. out.N
// counts it at once; its columns may lag until flush.
func (f *tupleFetcher) fetch(tid storage.TID, out *plan.Batch) error {
	fr, err := f.ctx.Pool.Pin(storage.PageID{File: f.heap.FileID(), Page: tid.Page}, f.hint)
	if err != nil {
		return err
	}
	err = f.gather(fr, tid, out)
	f.ctx.Pool.Release(fr)
	return err
}

// flush gathers the pending run of cached-block rows into out's columns.
func (f *tupleFetcher) flush(out *plan.Batch) {
	if len(f.run) == 0 {
		return
	}
	for c := range out.Cols {
		if f.need == nil || f.need[c] {
			out.Cols[c].AppendRows(&f.blk.Cols[c], f.run)
		}
	}
	f.run = f.run[:0]
}

// rowOfSlot returns the row of blk decoded from the given slot, or -1.
func rowOfSlot(blk *storage.ColBlock, slot uint16) int {
	r := int(slot)
	if r >= blk.Rows || blk.Slots[r] != slot { // some earlier slot is dead
		r = sort.Search(blk.Rows, func(i int) bool { return blk.Slots[i] >= slot })
		if r == blk.Rows || blk.Slots[r] != slot {
			return -1
		}
	}
	return r
}

func (f *tupleFetcher) gather(fr *buffer.Frame, tid storage.TID, out *plan.Batch) error {
	if !f.looked || f.page != tid.Page {
		f.flush(out)
		f.page, f.blk, f.looked = tid.Page, f.blocks.Get(tid.Page), true
	}
	if blk := f.blk; blk != nil && len(blk.Cols) == len(out.Cols) && blk.Cols != nil {
		if r := rowOfSlot(blk, tid.Slot); r >= 0 {
			f.run = append(f.run, r)
			out.N++
			return nil
		}
	}
	f.flush(out)
	data, err := f.ctx.Pool.Data(fr)
	if err != nil {
		return err
	}
	rec, ok, err := storage.NewSlottedPage(data).Get(tid.Slot)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("storage: tuple %v is deleted", tid)
	}
	f.scratch = growSlice(f.scratch, len(out.Cols))
	if err := storage.DecodeFields(rec, f.need, f.scratch); err != nil {
		return err
	}
	for c := range out.Cols {
		if f.need == nil || f.need[c] {
			out.Cols[c].Append(f.scratch[c])
		}
	}
	out.N++
	return nil
}

// vIndexScan is the batch form of the B+-tree range scan. Per index entry
// it performs the tuple scan's sequence in the tuple scan's order —
// OpsPerIndexTuple, visibility, one heap Fetch/Unpin, OpsPerTuple — but
// gathers the fetched tuples' needed columns straight into column vectors
// and runs the pushed-down filter as one conjunct cascade per batch.
//
// Each round fetches at most budget entries, so under a row budget the scan
// never reads an index entry or heap page past the one that yields the
// budget's last survivor.
type vIndexScan struct {
	ctx     *Context
	node    *optimizer.IndexScan
	rangeIt *index.RangeIterator
	conj    *vecConjuncts
	fetcher tupleFetcher

	out      plan.Batch
	selBuf   []int
	budgeted bool // some NextBatch call carried a finite budget
	done     bool

	// keepTIDs is set by ScanLeaf: tids then holds the heap TID of each
	// physical row of out.
	keepTIDs bool
	tids     []storage.TID
}

func newVIndexScan(n *optimizer.IndexScan, ctx *Context) (*vIndexScan, error) {
	conj, err := compileVecConjuncts(n.Filter, n.Layout(), ctx.VM)
	if err != nil {
		return nil, err
	}
	lo, hi := indexRange(n)
	it, err := n.Index.Tree.SeekRange(ctx.Pool, lo, hi)
	if err != nil {
		return nil, err
	}
	hint := storage.RandHint
	if n.Correlated {
		hint = storage.SeqHint
	}
	return &vIndexScan{
		ctx: ctx, node: n, rangeIt: it, conj: conj,
		fetcher: tupleFetcher{ctx: ctx, heap: n.Rel.Table.Heap, blocks: n.Rel.Table.Blocks, hint: hint},
	}, nil
}

// pruneOutput narrows the materialized columns to those the consumer reads
// plus those the scan's own filter reads.
func (s *vIndexScan) pruneOutput(needed []bool) {
	set := make(map[int]struct{})
	for _, c := range s.node.Filter {
		if !exprCols(c.E, s.node.Layout(), set) {
			return
		}
	}
	need := append([]bool(nil), needed...)
	for c := range set {
		need[c] = true
	}
	s.fetcher.need = need
}

func (s *vIndexScan) NextBatch(budget int) (*plan.Batch, bool, error) {
	if budget != noBudget {
		s.budgeted = true
	}
	budget = min(budget, plan.BatchSize)
	fid := s.node.Rel.Table.Heap.FileID()
	for !s.done {
		s.out.Reset(s.node.Width())
		s.tids = s.tids[:0]
		entries := 0
		var err error
		for s.out.N < budget {
			var tid storage.TID
			var ok bool
			_, tid, ok, err = s.rangeIt.Next()
			if err != nil || !ok {
				s.done = true
				break
			}
			entries++
			if s.ctx.Vis != nil && !s.ctx.Vis(fid, tid) {
				continue
			}
			if err = s.fetcher.fetch(tid, &s.out); err != nil {
				s.done = true
				break
			}
			if s.keepTIDs {
				s.tids = append(s.tids, tid)
			}
		}
		s.fetcher.flush(&s.out)
		n := s.out.N
		s.ctx.VM.AccountCPU(OpsPerIndexTuple*float64(entries) + OpsPerTuple*float64(n))
		mIndexTuples.Add(int64(n))
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			break
		}
		if len(s.conj.preds) > 0 {
			sel, err := s.conj.apply(&s.out, liveSel(&s.out, &s.selBuf))
			if err != nil {
				return nil, false, err
			}
			if len(sel) == 0 {
				continue
			}
			if len(sel) < n {
				s.out.Sel = sel
			}
		}
		return &s.out, true, nil
	}
	return nil, false, nil
}

// tid returns the heap TID of physical row i of the batch returned last.
func (s *vIndexScan) tid(i int) storage.TID { return s.tids[i] }

func (s *vIndexScan) Close() {
	if s.budgeted && !s.done {
		mLimitStops.Inc()
	}
	s.rangeIt.Close()
	s.done = true
}

// fetchesPerRow reports whether an operator touches the buffer pool row by
// row as its output is pulled, rather than once per batch: index scans and
// index probes fetch a heap page per entry, whereas a sequential scan
// fetches one page per batch and a blocking operator does all its I/O on
// the first pull. An operator that interleaves pool events of its own with
// those of such an input (vIndexNLJoin's probes) must pull it one row at a
// time to keep the events in the tuple executor's order.
func fetchesPerRow(n optimizer.Node) bool {
	switch x := n.(type) {
	case *optimizer.SeqScan, *optimizer.Sort, *optimizer.HashAgg:
		return false
	case *optimizer.SubqueryScan:
		return fetchesPerRow(x.Input)
	case *optimizer.FilterNode:
		return fetchesPerRow(x.Input)
	case *optimizer.Project:
		return fetchesPerRow(x.Input)
	case *optimizer.Distinct:
		return fetchesPerRow(x.Input)
	case *optimizer.Limit:
		return fetchesPerRow(x.Input)
	case *optimizer.NLJoin:
		return fetchesPerRow(x.Outer)
	case *optimizer.HashJoin:
		if x.BuildOuter {
			return fetchesPerRow(x.Right)
		}
		return fetchesPerRow(x.Left)
	}
	return true // IndexScan, IndexNLJoin, MergeJoin
}

// vIndexNLJoin is the batch form of the index nested-loops join. For an
// outer batch it evaluates the probe keys column-wise, probes the inner
// B+-tree once per outer row in row order (each probe's index entries and
// heap fetches in the tuple join's sequence), gathers every fetched inner
// tuple into one candidate batch, and then runs the inner filter and the
// residual as vectorized cascades over all candidates at once. Matches are
// emitted in the tuple join's order: each outer row's passing candidates,
// then its LEFT null extension.
//
// The probes are pool events of the join's own, so an outer side that
// fetches per row is pulled one row at a time (see fetchesPerRow), as is
// any outer side under a row budget; the budget then also windows the
// residual over the row's candidates, like the hash joins.
type vIndexNLJoin struct {
	ctx       *Context
	node      *optimizer.IndexNLJoin
	outer     batchIterator
	outerStep bool // the outer side must be pulled row by row
	keyEv     plan.VecEval
	innerPred *vecConjuncts
	residual  *vecConjuncts
	resCols   []int
	fetcher   tupleFetcher

	sel       []int      // live rows of the held outer batch
	keys      types.Vec  // probe key per live outer row
	inner     plan.Batch // fetched inner tuples of the held outer batch
	candProbe []int      // per fetched tuple: position in sel of its outer row
	live      []int      // fetched tuples that passed the inner filter
	win       probeWindow

	selBuf, liveBuf, candSel, outerIdx []int
	cand                               plan.Batch
	pass                               []bool
	rowBuf                             plan.Row
	out                                plan.Batch
	done                               bool
}

func newVIndexNLJoin(n *optimizer.IndexNLJoin, ctx *Context) (batchIterator, error) {
	outer, err := vbuild(n.Outer, ctx)
	if err != nil {
		return nil, err
	}
	keyEv, err := plan.CompileVec(n.OuterKey, n.Outer.Layout(), ctx.VM)
	if err != nil {
		outer.Close()
		return nil, err
	}
	innerPred, err := compileVecConjuncts(n.InnerFilter, plan.SingleRel(n.InnerRel.Idx), ctx.VM)
	if err != nil {
		outer.Close()
		return nil, err
	}
	residual, err := compileVecConjuncts(n.Residual, n.Layout(), ctx.VM)
	if err != nil {
		outer.Close()
		return nil, err
	}
	return &vIndexNLJoin{
		ctx: ctx, node: n, outer: outer, outerStep: fetchesPerRow(n.Outer),
		keyEv: keyEv, innerPred: innerPred, residual: residual,
		resCols: residualCols(n.Residual, n.Layout(), n.Width()),
		fetcher: tupleFetcher{
			ctx: ctx, heap: n.InnerRel.Table.Heap, blocks: n.InnerRel.Table.Blocks, hint: storage.RandHint,
		},
		rowBuf: make(plan.Row, n.Width()),
	}, nil
}

// probe fetches the inner tuples whose key equals the k-th outer row's.
func (j *vIndexNLJoin) probe(key int64, k int) (entries int, err error) {
	it, err := j.node.Index.Tree.SeekRange(j.ctx.Pool, key, key)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	fid := j.node.InnerRel.Table.Heap.FileID()
	for {
		_, tid, ok, err := it.Next()
		if err != nil || !ok {
			return entries, err
		}
		entries++
		if j.ctx.Vis != nil && !j.ctx.Vis(fid, tid) {
			continue
		}
		if err := j.fetcher.fetch(tid, &j.inner); err != nil {
			return entries, err
		}
		j.candProbe = append(j.candProbe, k)
	}
}

// advance pulls the next outer batch and probes the index for each of its
// rows, leaving the inner-filtered candidates in j.live.
func (j *vIndexNLJoin) advance(budget int) (*plan.Batch, error) {
	pull := pullSize(budget)
	if j.outerStep {
		pull = 1
	}
	b, ok, err := j.outer.NextBatch(pull)
	if err != nil || !ok {
		j.done = true
		return nil, err
	}
	j.sel = liveSel(b, &j.selBuf)
	n := len(j.sel)
	j.ctx.VM.AccountCPU(plan.OpsPerOperator * float64(n))
	if err := j.keyEv(b, j.sel, &j.keys); err != nil {
		return nil, err
	}
	j.inner.Reset(j.node.Width() - j.node.Outer.Width())
	j.candProbe = j.candProbe[:0]
	entries := 0
	for k := 0; k < n; k++ {
		// A NULL key matches nothing, and a non-integral key cannot match
		// an int64 index (LEFT joins null-extend such rows at emission).
		kv := j.keys.Get(k)
		if kv.IsNull() {
			continue
		}
		key := normalizeKeyVal(kv)
		if key.Kind != types.KindInt {
			continue
		}
		var e int
		e, err = j.probe(key.I, k)
		entries += e
		if err != nil {
			break
		}
	}
	j.fetcher.flush(&j.inner)
	fetched := j.inner.N
	j.ctx.VM.AccountCPU(OpsPerIndexTuple*float64(entries) + OpsPerTuple*float64(fetched))
	mIndexTuples.Add(int64(fetched))
	if err != nil {
		return nil, err
	}
	j.live = liveSel(&j.inner, &j.liveBuf)
	if fetched > 0 {
		if j.live, err = j.innerPred.apply(&j.inner, j.live); err != nil {
			return nil, err
		}
	}
	j.win = probeWindow{}
	return b, nil
}

// fillCand materializes the residual-referenced columns of the candidate
// pairs: outer columns gather from the outer batch, inner columns from the
// fetched tuples.
func (j *vIndexNLJoin) fillCand(b *plan.Batch, live []int, outerW, width int) {
	j.cand.Reset(width)
	j.cand.N = len(live)
	j.outerIdx = growSlice(j.outerIdx, len(live))
	for x, t := range live {
		j.outerIdx[x] = j.sel[j.candProbe[t]]
	}
	for _, c := range j.resCols {
		if c < outerW {
			j.cand.Cols[c].AppendRows(&b.Cols[c], j.outerIdx)
		} else {
			j.cand.Cols[c].AppendRows(&j.inner.Cols[c-outerW], live)
		}
	}
}

func (j *vIndexNLJoin) NextBatch(budget int) (*plan.Batch, bool, error) {
	outerW := j.node.Outer.Width()
	width := j.node.Width()
	comb := j.rowBuf[:width]
	for !j.done {
		b := j.win.hold
		if b == nil {
			var err error
			if b, err = j.advance(budget); err != nil || b == nil {
				return nil, false, err
			}
		}
		// Under a budget the outer batch is a single row; test at most budget
		// of its candidates per call.
		live, more := j.live, false
		if budget != noBudget {
			var from, to int
			from, to, more = j.win.clip(len(live), budget)
			live = live[from:to]
		}
		// One vectorized residual cascade over the candidates. With no
		// residual every candidate passes and nothing is materialized.
		pass := j.pass[:0]
		if len(j.residual.preds) > 0 && len(live) > 0 {
			if cap(pass) < len(live) {
				pass = make([]bool, len(live))
			}
			pass = pass[:len(live)]
			for c := range pass {
				pass[c] = false
			}
			j.fillCand(b, live, outerW, width)
			j.candSel = growSlice(j.candSel, len(live))
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
		x := 0 // next candidate; candidates are grouped by outer row, in order
		for k, i := range j.sel {
			rowMatched := j.win.matched
			if (x < len(live) && j.candProbe[live[x]] == k) || j.node.Type == sql.LeftJoin {
				b.ReadRow(i, comb[:outerW])
			}
			for ; x < len(live) && j.candProbe[live[x]] == k; x++ {
				if len(pass) > 0 && !pass[x] {
					continue
				}
				rowMatched = true
				j.inner.ReadRow(live[x], comb[outerW:])
				j.out.AppendRow(comb)
			}
			if more {
				j.win.hold, j.win.matched = b, rowMatched
				break
			}
			j.win.hold = nil
			if !rowMatched && j.node.Type == sql.LeftJoin {
				for col := outerW; col < width; col++ {
					comb[col] = types.Null
				}
				j.out.AppendRow(comb)
			}
		}
		if j.out.N > 0 {
			j.ctx.VM.AccountCPU(OpsPerTuple * float64(j.out.N))
			return &j.out, true, nil
		}
	}
	return nil, false, nil
}

func (j *vIndexNLJoin) Close() { j.outer.Close() }
