package executor

import (
	"fmt"

	"dbvirt/internal/index"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/storage"
)

// tidScanner is a base-table scan: besides the iterator contract it can
// report where each qualifying row lives. The scan sequence — visibility
// check, CPU charges, heap fetch, pushed-down filter — exists once, in
// next; Next drops the TID for SELECT plans, ScanLeaf keeps it for DML.
type tidScanner interface {
	iterator
	next() (storage.TID, plan.Row, bool, error)
}

// ScanLeaf runs a single-table access path and calls fn with the TID and
// tuple of every visible row that passes the node's filters. The node is a
// SeqScan or IndexScan, optionally under the FilterNode the optimizer puts
// above a leaf for relation-free conjuncts. UPDATE and DELETE collect their
// victims through it, so they charge the VM exactly what the SELECT with
// the same WHERE charges. Tuples passed to fn are freshly decoded and may
// be retained.
func ScanLeaf(n optimizer.Node, ctx *Context, fn func(storage.TID, storage.Tuple) error) error {
	var above []plan.Conjunct
	if f, ok := n.(*optimizer.FilterNode); ok {
		above, n = f.Conds, f.Input
	}
	post, err := compileConjuncts(above, n.Layout(), ctx.VM)
	if err != nil {
		return err
	}
	var it tidScanner
	switch x := n.(type) {
	case *optimizer.SeqScan:
		it, err = newSeqScanIter(x, ctx)
	case *optimizer.IndexScan:
		it, err = newIndexScanIter(x, ctx)
	default:
		return fmt.Errorf("executor: ScanLeaf: %T is not a base-table scan", n)
	}
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		tid, row, ok, err := it.next()
		if err != nil || !ok {
			return err
		}
		pass, err := post(row)
		if err != nil {
			return err
		}
		if !pass {
			continue
		}
		if err := fn(tid, storage.Tuple(row)); err != nil {
			return err
		}
	}
}

// seqScanIter scans a heap file sequentially with pushed-down filters.
type seqScanIter struct {
	ctx    *Context
	node   *optimizer.SeqScan
	heapIt *storage.Iterator
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
		heapIt: n.Rel.Table.Heap.NewIterator(ctx.Pool),
		pred:   pred,
	}, nil
}

func (s *seqScanIter) next() (storage.TID, plan.Row, bool, error) {
	fid := s.node.Rel.Table.Heap.FileID()
	for {
		tid, tup, ok, err := s.heapIt.Next()
		if err != nil || !ok {
			return storage.TID{}, nil, false, err
		}
		if s.ctx.Vis != nil && !s.ctx.Vis(fid, tid) {
			continue
		}
		s.ctx.VM.AccountCPU(OpsPerTuple)
		row := plan.Row(tup)
		pass, err := s.pred(row)
		if err != nil {
			return storage.TID{}, nil, false, err
		}
		if pass {
			return tid, row, true, nil
		}
	}
}

func (s *seqScanIter) Next() (plan.Row, bool, error) {
	_, row, ok, err := s.next()
	return row, ok, err
}

func (s *seqScanIter) Close() {
	if !s.closed {
		s.heapIt.Close()
		s.closed = true
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

func (s *indexScanIter) next() (storage.TID, plan.Row, bool, error) {
	fid := s.node.Rel.Table.Heap.FileID()
	for {
		_, tid, ok, err := s.rangeIt.Next()
		if err != nil || !ok {
			return storage.TID{}, nil, false, err
		}
		s.ctx.VM.AccountCPU(OpsPerIndexTuple)
		if s.ctx.Vis != nil && !s.ctx.Vis(fid, tid) {
			continue
		}
		tup, err := s.node.Rel.Table.Heap.GetAt(s.ctx.Pool, tid, s.hint)
		if err != nil {
			return storage.TID{}, nil, false, err
		}
		s.ctx.VM.AccountCPU(OpsPerTuple)
		row := plan.Row(tup)
		pass, err := s.pred(row)
		if err != nil {
			return storage.TID{}, nil, false, err
		}
		if pass {
			return tid, row, true, nil
		}
	}
}

func (s *indexScanIter) Next() (plan.Row, bool, error) {
	_, row, ok, err := s.next()
	return row, ok, err
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
	evs   []plan.Evaluator
	out   plan.Row
}

func newProjectIter(n *optimizer.Project, ctx *Context) (iterator, error) {
	input, err := build(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	evs := make([]plan.Evaluator, len(n.Cols))
	for i, c := range n.Cols {
		ev, err := plan.Compile(c.E, n.Input.Layout(), ctx.VM)
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
