package executor

import (
	"fmt"

	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/storage"
)

// tidScan is a base-table batch scan that can name the heap tuple behind
// each physical row of the batch it returned last.
type tidScan interface {
	batchIterator
	tid(i int) storage.TID
}

// ScanLeaf runs a single-table access path and calls fn with the TID and
// tuple of every visible row that passes the node's filters. The node is a
// SeqScan or IndexScan, optionally under the FilterNode the optimizer puts
// above a leaf for relation-free conjuncts. UPDATE and DELETE collect their
// victims through it on the batch scans a SELECT runs, so they charge the
// VM exactly what the SELECT with the same WHERE charges. Tuples passed to
// fn are fresh copies and may be retained.
func ScanLeaf(n optimizer.Node, ctx *Context, fn func(storage.TID, storage.Tuple) error) error {
	var above *vecConjuncts
	if f, ok := n.(*optimizer.FilterNode); ok {
		n = f.Input
		var err error
		if above, err = compileVecConjuncts(f.Conds, n.Layout(), ctx.VM); err != nil {
			return err
		}
	}
	var scan tidScan
	switch x := n.(type) {
	case *optimizer.SeqScan:
		s, err := newVSeqScan(x, ctx)
		if err != nil {
			return err
		}
		scan = s
	case *optimizer.IndexScan:
		s, err := newVIndexScan(x, ctx)
		if err != nil {
			return err
		}
		s.keepTIDs = true
		scan = s
	default:
		return fmt.Errorf("executor: ScanLeaf: %T is not a base-table scan", n)
	}
	var in batchIterator = scan
	if above != nil {
		in = &vFilter{input: scan, conj: above}
	}
	defer in.Close()
	for {
		b, ok, err := in.NextBatch(noBudget)
		if err != nil || !ok {
			return err
		}
		for k := 0; k < b.Len(); k++ {
			i := b.RowIdx(k)
			tup := make(storage.Tuple, len(b.Cols))
			b.ReadRow(i, plan.Row(tup))
			if err := fn(scan.tid(i), tup); err != nil {
				return err
			}
		}
	}
}
