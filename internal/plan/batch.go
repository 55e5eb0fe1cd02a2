package plan

import "dbvirt/internal/types"

// BatchSize is the target number of rows per batch in the vectorized
// executor. Scans emit one batch per heap page (a page holds fewer rows
// than this), so a batch never spans a page pin.
const BatchSize = 1024

// Batch is a set of rows in columnar form: one Vec per output column plus
// an optional selection vector. Operators narrow Sel instead of copying
// survivors, so a filtered scan batch still aliases the decoded page
// columns with zero copying.
type Batch struct {
	// Cols holds one vector per column. Column vectors may alias shared
	// column blocks and must not be mutated in place.
	Cols []types.Vec
	// Sel lists the live physical row indexes in ascending order; nil
	// means all N rows are live.
	Sel []int
	// N is the number of physical rows in Cols (the live count when Sel
	// is nil).
	N int
}

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// RowIdx maps the k-th live row to its physical row index.
func (b *Batch) RowIdx(k int) int {
	if b.Sel != nil {
		return b.Sel[k]
	}
	return k
}

// Value returns column col of physical row i.
func (b *Batch) Value(i, col int) types.Value {
	return b.Cols[col].Get(i)
}

// ReadRow materializes physical row i into dst, which must have length
// len(b.Cols).
func (b *Batch) ReadRow(i int, dst Row) {
	for c := range b.Cols {
		dst[c] = b.Cols[c].Get(i)
	}
}

// Reset prepares b as an empty output batch of the given width, reusing
// column capacity. The batch must own its columns (see Vec.Reset).
func (b *Batch) Reset(width int) {
	if cap(b.Cols) < width {
		b.Cols = make([]types.Vec, width)
	}
	b.Cols = b.Cols[:width]
	for c := range b.Cols {
		b.Cols[c].Reset()
	}
	b.Sel = nil
	b.N = 0
}

// AppendRow appends one row to an owned output batch.
func (b *Batch) AppendRow(r Row) {
	for c := range b.Cols {
		b.Cols[c].Append(r[c])
	}
	b.N++
}
