package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dbvirt/internal/types"
)

// Zone holds per-page min/max statistics for one column, the zone map that
// lets sequential scans skip pages whose value range provably cannot
// satisfy a predicate.
type Zone struct {
	// Nulls and NonNulls count the page's live rows by nullness.
	Nulls    int
	NonNulls int
	// Min and Max bound the non-null values. They are valid only when
	// Ordered is true (NonNulls > 0 and all values mutually comparable).
	Min, Max types.Value
	Ordered  bool
}

// ColBlock is the columnar form of one slotted heap page: the live tuples
// transposed into per-column vectors, plus zone statistics. Blocks are
// immutable once built and safe to share across sessions; the engine's
// block caches are cleared on any catalog invalidation (DDL, DML,
// ANALYZE), matching the plan-cache contract.
//
// When the page's tuples do not all share one arity (never produced by the
// engine, but legal at the storage layer), the block keeps decoded rows in
// RowData instead and Cols/Zones are nil.
type ColBlock struct {
	// Rows is the number of live tuples decoded into Cols.
	Rows int
	// Slots holds the slot number of each decoded row, in physical order.
	Slots []uint16
	// Cols holds one vector per column; nil for irregular pages.
	Cols []types.Vec
	// Zones holds one zone per column; nil for irregular pages.
	Zones []Zone
	// RowData holds decoded rows when the page is irregular.
	RowData []Tuple
	// Err, when non-nil, is a decode error hit after the block's rows:
	// they are valid and a scan must yield them before failing, exactly as
	// a tuple-at-a-time scan would.
	Err error
}

// colBuilder accumulates one column during page decode, preferring a typed
// payload slice and demoting to boxed values if kinds ever mix.
type colBuilder struct {
	kind types.Kind // KindNull until the first non-null value
	null []bool     // lazily allocated on first NULL
	i    []int64
	f    []float64
	s    []string
	any  []types.Value // non-nil after demotion
	n    int
	zone Zone
}

// widen extends an ordered zone's range to cover the non-null value v, or
// marks the zone unordered when v does not compare with it.
func (z *Zone) widen(v types.Value) {
	// A column is almost always one kind: compare payloads directly, with
	// types.Compare's outcomes (NaN moves neither bound).
	if v.Kind == z.Min.Kind && v.Kind == z.Max.Kind {
		switch v.Kind {
		case types.KindInt, types.KindDate, types.KindBool:
			if v.I < z.Min.I {
				z.Min = v
			}
			if v.I > z.Max.I {
				z.Max = v
			}
			return
		case types.KindFloat:
			if v.F < z.Min.F {
				z.Min = v
			}
			if v.F > z.Max.F {
				z.Max = v
			}
			return
		case types.KindString:
			if v.S < z.Min.S {
				z.Min = v
			}
			if v.S > z.Max.S {
				z.Max = v
			}
			return
		}
	}
	cMin, ok1 := types.Compare(v, z.Min)
	cMax, ok2 := types.Compare(v, z.Max)
	if !ok1 || !ok2 {
		z.Ordered = false
		return
	}
	if cMin < 0 {
		z.Min = v
	}
	if cMax > 0 {
		z.Max = v
	}
}

func (cb *colBuilder) appendVal(v types.Value) {
	if v.IsNull() {
		cb.zone.Nulls++
	} else {
		cb.zone.NonNulls++
		if cb.zone.NonNulls == 1 {
			cb.zone.Min, cb.zone.Max, cb.zone.Ordered = v, v, true
		} else if cb.zone.Ordered {
			cb.zone.widen(v)
		}
	}

	if cb.any != nil {
		cb.any = append(cb.any, v)
		cb.n++
		return
	}
	if v.IsNull() {
		cb.ensureNull()
		cb.null = append(cb.null, true)
		cb.appendZero()
		cb.n++
		return
	}
	if cb.kind == types.KindNull {
		cb.kind = v.Kind
		// Backfill payload placeholders for the NULL rows seen while the
		// kind was still unknown, keeping payload indexes row-aligned.
		for idx := 0; idx < cb.n; idx++ {
			cb.appendZero()
		}
	} else if cb.kind != v.Kind {
		cb.demote()
		cb.any = append(cb.any, v)
		cb.n++
		return
	}
	if cb.null != nil {
		cb.null = append(cb.null, false)
	}
	switch cb.kind {
	case types.KindFloat:
		cb.f = append(cb.f, v.F)
	case types.KindString:
		cb.s = append(cb.s, v.S)
	default:
		cb.i = append(cb.i, v.I)
	}
	cb.n++
}

// ensureNull backfills the null bitmap for the rows appended before the
// first NULL.
func (cb *colBuilder) ensureNull() {
	if cb.null == nil {
		cb.null = make([]bool, cb.n)
	}
}

// appendZero appends a placeholder payload entry for a NULL row.
func (cb *colBuilder) appendZero() {
	switch cb.kind {
	case types.KindFloat:
		cb.f = append(cb.f, 0)
	case types.KindString:
		cb.s = append(cb.s, "")
	case types.KindNull:
		// All-null column so far: no payload slice yet.
	default:
		cb.i = append(cb.i, 0)
	}
}

// demote converts the typed payload to boxed values on a kind conflict.
func (cb *colBuilder) demote() {
	v := cb.finish()
	any := make([]types.Value, cb.n, cb.n+1)
	for idx := 0; idx < cb.n; idx++ {
		any[idx] = v.Get(idx)
	}
	cb.any = any
	cb.null, cb.i, cb.f, cb.s = nil, nil, nil, nil
}

func (cb *colBuilder) finish() types.Vec {
	if cb.any != nil {
		return types.Vec{Any: cb.any}
	}
	if cb.kind == types.KindNull && cb.null == nil && cb.n > 0 {
		// Defensive: an all-null column always has a bitmap, but keep the
		// invariant explicit.
		cb.null = make([]bool, cb.n)
		for idx := range cb.null {
			cb.null[idx] = true
		}
	}
	return types.Vec{Kind: cb.kind, Null: cb.null, I: cb.i, F: cb.f, S: cb.s}
}

// BuildColBlock decodes one slotted page into columnar form. It never
// fails: a decode problem is recorded in Err so scans can
// reproduce tuple-at-a-time error positions.
func BuildColBlock(sp *SlottedPage) *ColBlock {
	blk := &ColBlock{}
	numSlots := sp.NumSlots()
	var builders []colBuilder
	irregular := false
	for slot := 0; slot < numSlots; slot++ {
		rec, ok, err := sp.Get(uint16(slot))
		if err != nil {
			blk.Err = err
			break
		}
		if !ok {
			continue
		}
		if irregular {
			t, err := DecodeTuple(rec)
			if err != nil {
				blk.Err = err
				break
			}
			blk.RowData = append(blk.RowData, t)
			blk.Slots = append(blk.Slots, uint16(slot))
			blk.Rows++
			continue
		}
		arity, err := decodeRecord(rec, &builders, blk.Rows)
		if err != nil {
			blk.Err = err
			break
		}
		if builders == nil || arity != len(builders) {
			if blk.Rows == 0 && builders == nil {
				builders = make([]colBuilder, arity)
				if _, err := decodeRecord(rec, &builders, 0); err != nil {
					blk.Err = err
					break
				}
			} else {
				// Mixed arity: re-decode everything row-wise.
				irregular = true
				blk.RowData = blk.RowData[:0]
				for r := 0; r < blk.Rows; r++ {
					row := make(Tuple, len(builders))
					for c := range builders {
						v := builders[c].finishView(r)
						row[c] = v
					}
					blk.RowData = append(blk.RowData, row)
				}
				t, err := DecodeTuple(rec)
				if err != nil {
					blk.Err = err
					break
				}
				blk.RowData = append(blk.RowData, t)
				blk.Slots = append(blk.Slots, uint16(slot))
				blk.Rows++
				continue
			}
		}
		blk.Slots = append(blk.Slots, uint16(slot))
		blk.Rows++
	}
	if irregular {
		return blk
	}
	blk.Cols = make([]types.Vec, len(builders))
	blk.Zones = make([]Zone, len(builders))
	for c := range builders {
		blk.Cols[c] = builders[c].finish()
		blk.Zones[c] = builders[c].zone
	}
	return blk
}

// finishView reads row r of a builder without finalizing it (used when a
// page turns out to be irregular mid-decode).
func (cb *colBuilder) finishView(r int) types.Value {
	v := cb.finish()
	return v.Get(r)
}

// decodeRecord parses one encoded tuple into the column builders. When
// *builders is nil it only reports the arity (first pass); otherwise the
// arity must match len(*builders) — a mismatch is reported via the return
// value, not an error. The encoding mirrors DecodeTuple.
func decodeRecord(buf []byte, builders *[]colBuilder, row int) (int, error) {
	if len(buf) < 2 {
		return 0, fmt.Errorf("storage: tuple too short (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if *builders == nil || n != len(*builders) {
		return n, nil
	}
	off := 2
	bs := *builders
	for i := 0; i < n; i++ {
		if off >= len(buf) {
			return n, fmt.Errorf("storage: truncated tuple at field %d", i)
		}
		kind := types.Kind(buf[off])
		off++
		var v types.Value
		switch kind {
		case types.KindNull:
			v = types.Null
		case types.KindInt, types.KindDate, types.KindBool:
			if off+8 > len(buf) {
				return n, fmt.Errorf("storage: truncated tuple at field %d", i)
			}
			v = types.Value{Kind: kind, I: int64(binary.LittleEndian.Uint64(buf[off:]))}
			off += 8
		case types.KindFloat:
			if off+8 > len(buf) {
				return n, fmt.Errorf("storage: truncated tuple at field %d", i)
			}
			v = types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		case types.KindString:
			if off+2 > len(buf) {
				return n, fmt.Errorf("storage: truncated tuple at field %d", i)
			}
			l := int(binary.LittleEndian.Uint16(buf[off:]))
			off += 2
			if off+l > len(buf) {
				return n, fmt.Errorf("storage: truncated string at field %d", i)
			}
			v = types.NewString(string(buf[off : off+l]))
			off += l
		default:
			return n, fmt.Errorf("storage: unknown kind %d at field %d", kind, i)
		}
		bs[i].appendVal(v)
	}
	_ = row
	return n, nil
}

// BlockCache caches the columnar form of a heap file's pages. Decoding is
// a host-side optimization and charges nothing to any VM; the cache is
// shared by all sessions reading the table and cleared whenever the
// catalog is invalidated. All methods are nil-safe so tables constructed
// without a cache simply decode on every scan.
//
// Get is on the path of every page a scan reads and every tuple an index
// points at, so it takes no lock: the blocks sit in a page-indexed slice
// of atomic pointers, which writers (serialized by mu) replace by a longer
// copy when a page beyond its end is cached.
type BlockCache struct {
	pages atomic.Pointer[[]atomic.Pointer[ColBlock]]
	mu    sync.Mutex
	n     int // cached blocks; guarded by mu
}

// NewBlockCache creates an empty cache.
func NewBlockCache() *BlockCache { return &BlockCache{} }

// Get returns the cached block for a page, or nil.
func (c *BlockCache) Get(page uint32) *ColBlock {
	if c == nil {
		return nil
	}
	if pages := c.pages.Load(); pages != nil && int(page) < len(*pages) {
		return (*pages)[page].Load()
	}
	return nil
}

// Put caches the block for a page.
func (c *BlockCache) Put(page uint32, b *ColBlock) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var pages []atomic.Pointer[ColBlock]
	if cur := c.pages.Load(); cur != nil {
		pages = *cur
	}
	if int(page) >= len(pages) {
		grown := make([]atomic.Pointer[ColBlock], max(int(page)+1, 2*len(pages)))
		for i := range pages {
			grown[i].Store(pages[i].Load())
		}
		pages = grown
		c.pages.Store(&pages)
	}
	if pages[page].Swap(b) == nil {
		c.n++
	}
}

// Clear drops every cached block.
func (c *BlockCache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.pages.Store(nil)
	c.n = 0
	c.mu.Unlock()
}
