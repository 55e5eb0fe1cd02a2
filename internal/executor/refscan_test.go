package executor

import (
	"dbvirt/internal/index"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/storage"
)

// seqScanIter scans a heap file sequentially with pushed-down filters.
type seqScanIter struct {
	ctx    *Context
	node   *optimizer.SeqScan
	heapIt *heapIterator
	pred   func(plan.Row) (bool, error)
	closed bool
}

func newSeqScanIter(n *optimizer.SeqScan, ctx *Context) (*seqScanIter, error) {
	pred, err := compileConjuncts(n.Filter, n.Layout(), ctx.VM)
	if err != nil {
		return nil, err
	}
	return &seqScanIter{
		ctx:    ctx,
		node:   n,
		heapIt: newHeapIterator(n.Rel.Table.Heap, ctx.Pool),
		pred:   pred,
	}, nil
}

func (s *seqScanIter) Next() (plan.Row, bool, error) {
	fid := s.node.Rel.Table.Heap.FileID()
	for {
		tid, tup, ok, err := s.heapIt.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if s.ctx.Vis != nil && !s.ctx.Vis(fid, tid) {
			continue
		}
		s.ctx.VM.AccountCPU(OpsPerTuple)
		row := plan.Row(tup)
		pass, err := s.pred(row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
	}
}

func (s *seqScanIter) Close() {
	if !s.closed {
		s.heapIt.Close()
		s.closed = true
	}
}

// heapIterator pulls the live tuples of a heap file in physical order,
// pinning one page at a time with sequential hints.
type heapIterator struct {
	pg     storage.Pager
	fid    storage.FileID
	pages  uint32
	pageNo uint32
	slot   int
	sp     *storage.SlottedPage
	pinned bool
	id     storage.PageID
}

func newHeapIterator(h *storage.HeapFile, pg storage.Pager) *heapIterator {
	fid := h.FileID()
	return &heapIterator{pg: pg, fid: fid, pages: pg.NumPages(fid)}
}

// Next returns the next live tuple, or ok=false at end of file.
func (it *heapIterator) Next() (storage.TID, storage.Tuple, bool, error) {
	for {
		if !it.pinned {
			if it.pageNo >= it.pages {
				return storage.TID{}, nil, false, nil
			}
			it.id = storage.PageID{File: it.fid, Page: it.pageNo}
			data, err := it.pg.Fetch(it.id, storage.SeqHint)
			if err != nil {
				return storage.TID{}, nil, false, err
			}
			it.sp = storage.NewSlottedPage(data)
			it.pinned = true
			it.slot = 0
		}
		for it.slot < it.sp.NumSlots() {
			s := it.slot
			it.slot++
			rec, ok, err := it.sp.Get(uint16(s))
			if err != nil {
				it.Close()
				return storage.TID{}, nil, false, err
			}
			if !ok {
				continue
			}
			t, err := storage.DecodeTuple(rec)
			if err != nil {
				it.Close()
				return storage.TID{}, nil, false, err
			}
			return storage.TID{Page: it.pageNo, Slot: uint16(s)}, t, true, nil
		}
		it.pg.Unpin(it.id, false)
		it.pinned = false
		it.pageNo++
	}
}

// Close releases any pinned page; safe to call multiple times.
func (it *heapIterator) Close() {
	if it.pinned {
		it.pg.Unpin(it.id, false)
		it.pinned = false
	}
}

// indexScanIter probes a B+-tree range and fetches matching heap tuples.
type indexScanIter struct {
	ctx     *Context
	node    *optimizer.IndexScan
	rangeIt *index.RangeIterator
	pred    func(plan.Row) (bool, error)
	hint    storage.AccessHint
	closed  bool
}

func newIndexScanIter(n *optimizer.IndexScan, ctx *Context) (*indexScanIter, error) {
	pred, err := compileConjuncts(n.Filter, n.Layout(), ctx.VM)
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
	return &indexScanIter{ctx: ctx, node: n, rangeIt: it, pred: pred, hint: hint}, nil
}

func (s *indexScanIter) Next() (plan.Row, bool, error) {
	fid := s.node.Rel.Table.Heap.FileID()
	for {
		_, tid, ok, err := s.rangeIt.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		s.ctx.VM.AccountCPU(OpsPerIndexTuple)
		if s.ctx.Vis != nil && !s.ctx.Vis(fid, tid) {
			continue
		}
		tup, err := s.node.Rel.Table.Heap.GetAt(s.ctx.Pool, tid, s.hint)
		if err != nil {
			return nil, false, err
		}
		s.ctx.VM.AccountCPU(OpsPerTuple)
		row := plan.Row(tup)
		pass, err := s.pred(row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
	}
}

func (s *indexScanIter) Close() {
	if !s.closed {
		s.rangeIt.Close()
		s.closed = true
	}
}

// subqueryScanIter evaluates a derived table: it runs the inner plan and
// exposes its visible output columns as the relation's rows.
type subqueryScanIter struct {
	input   iterator
	visible []int
	out     plan.Row
}

func newSubqueryScanIter(n *optimizer.SubqueryScan, ctx *Context) (iterator, error) {
	input, err := build(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	return &subqueryScanIter{
		input:   input,
		visible: n.Visible,
		out:     make(plan.Row, len(n.Visible)),
	}, nil
}

func (s *subqueryScanIter) Next() (plan.Row, bool, error) {
	row, ok, err := s.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	for i, idx := range s.visible {
		s.out[i] = row[idx]
	}
	return s.out, true, nil
}

func (s *subqueryScanIter) Close() { s.input.Close() }

// filterIter applies residual predicates.
type filterIter struct {
	input iterator
	pred  func(plan.Row) (bool, error)
}

func newFilterIter(n *optimizer.FilterNode, ctx *Context) (iterator, error) {
	input, err := build(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	pred, err := compileConjuncts(n.Conds, n.Layout(), ctx.VM)
	if err != nil {
		input.Close()
		return nil, err
	}
	return &filterIter{input: input, pred: pred}, nil
}

func (f *filterIter) Next() (plan.Row, bool, error) {
	for {
		row, ok, err := f.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := f.pred(row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
	}
}

func (f *filterIter) Close() { f.input.Close() }

// projectIter evaluates the output expressions.
type projectIter struct {
	input iterator
	evs   []rowEval
	out   plan.Row
}

func newProjectIter(n *optimizer.Project, ctx *Context) (iterator, error) {
	input, err := build(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	evs := make([]rowEval, len(n.Cols))
	for i, c := range n.Cols {
		ev, err := compileRow(c.E, n.Input.Layout(), ctx.VM)
		if err != nil {
			input.Close()
			return nil, err
		}
		evs[i] = ev
	}
	return &projectIter{input: input, evs: evs, out: make(plan.Row, len(evs))}, nil
}

func (p *projectIter) Next() (plan.Row, bool, error) {
	row, ok, err := p.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	for i, ev := range p.evs {
		v, err := ev(row)
		if err != nil {
			return nil, false, err
		}
		p.out[i] = v
	}
	return p.out, true, nil
}

func (p *projectIter) Close() { p.input.Close() }

// limitIter truncates the stream.
type limitIter struct {
	input iterator
	left  int64
}

func newLimitIter(n *optimizer.Limit, ctx *Context) (iterator, error) {
	input, err := build(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	return &limitIter{input: input, left: n.N}, nil
}

func (l *limitIter) Next() (plan.Row, bool, error) {
	if l.left <= 0 {
		return nil, false, nil
	}
	row, ok, err := l.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.left--
	return row, true, nil
}

func (l *limitIter) Close() { l.input.Close() }

// distinctIter removes duplicate rows over the leading visible columns.
type distinctIter struct {
	ctx     *Context
	input   iterator
	visible int
	seen    map[string]bool
}

func newDistinctIter(n *optimizer.Distinct, ctx *Context) (iterator, error) {
	input, err := build(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	return &distinctIter{ctx: ctx, input: input, visible: n.VisibleCols, seen: make(map[string]bool)}, nil
}

func (d *distinctIter) Next() (plan.Row, bool, error) {
	for {
		row, ok, err := d.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		d.ctx.VM.AccountCPU(float64(d.visible) * OpsPerHash)
		key := encodeKey(row[:d.visible])
		if d.seen[key] {
			continue
		}
		d.seen[key] = true
		return row, true, nil
	}
}

func (d *distinctIter) Close() { d.input.Close() }
