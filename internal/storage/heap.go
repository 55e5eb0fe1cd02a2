package storage

import (
	"fmt"
)

// TID is a tuple identifier: the physical address of a record in a heap
// file.
type TID struct {
	Page uint32
	Slot uint16
}

// String formats the TID for diagnostics.
func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Page, t.Slot) }

// Less orders TIDs in physical (page, slot) order.
func (t TID) Less(o TID) bool {
	if t.Page != o.Page {
		return t.Page < o.Page
	}
	return t.Slot < o.Slot
}

// HeapFile is an unordered collection of tuples stored in slotted pages.
// The struct holds only immutable identity (file ID); all page access goes
// through the Pager passed to each method, so one heap file can be read by
// sessions in different VMs concurrently.
type HeapFile struct {
	fid FileID
}

// NewHeapFile wraps a disk file as a heap. The file should be empty or
// previously written by a HeapFile.
func NewHeapFile(fid FileID) *HeapFile { return &HeapFile{fid: fid} }

// FileID returns the underlying disk file.
func (h *HeapFile) FileID() FileID { return h.fid }

// Insert appends the tuple, allocating a new page when the last page is
// full, and returns its TID. Inserts use sequential access hints: bulk
// loading is a sequential write pattern.
func (h *HeapFile) Insert(pg Pager, t Tuple) (TID, error) {
	rec := EncodeTuple(t)
	if len(rec) > PageSize-slottedHeaderSize-slotSize {
		return TID{}, fmt.Errorf("storage: tuple of %d bytes exceeds page capacity", len(rec))
	}
	n := pg.NumPages(h.fid)
	if n > 0 {
		last := PageID{File: h.fid, Page: n - 1}
		data, err := pg.Fetch(last, SeqHint)
		if err != nil {
			return TID{}, err
		}
		sp := NewSlottedPage(data)
		if slot, err := sp.Insert(rec); err == nil {
			pg.Unpin(last, true)
			return TID{Page: last.Page, Slot: slot}, nil
		}
		pg.Unpin(last, false)
	}
	id, data, err := pg.Allocate(h.fid)
	if err != nil {
		return TID{}, err
	}
	sp := NewSlottedPage(data)
	sp.Init()
	slot, err := sp.Insert(rec)
	if err != nil {
		pg.Unpin(id, false)
		return TID{}, err
	}
	pg.Unpin(id, true)
	return TID{Page: id.Page, Slot: slot}, nil
}

// Get fetches the tuple at the given TID (a random access).
func (h *HeapFile) Get(pg Pager, tid TID) (Tuple, error) {
	id := PageID{File: h.fid, Page: tid.Page}
	data, err := pg.Fetch(id, RandHint)
	if err != nil {
		return nil, err
	}
	defer pg.Unpin(id, false)
	sp := NewSlottedPage(data)
	rec, ok, err := sp.Get(tid.Slot)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("storage: tuple %v is deleted", tid)
	}
	return DecodeTuple(rec)
}

// GetAt is Get with a caller-chosen access hint; index scans over
// well-correlated indexes use sequential hints.
func (h *HeapFile) GetAt(pg Pager, tid TID, hint AccessHint) (Tuple, error) {
	id := PageID{File: h.fid, Page: tid.Page}
	data, err := pg.Fetch(id, hint)
	if err != nil {
		return nil, err
	}
	defer pg.Unpin(id, false)
	sp := NewSlottedPage(data)
	rec, ok, err := sp.Get(tid.Slot)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("storage: tuple %v is deleted", tid)
	}
	return DecodeTuple(rec)
}

// Scan calls fn for every live tuple in physical order. If fn returns an
// error the scan stops and returns it. Pages are fetched with sequential
// hints.
func (h *HeapFile) Scan(pg Pager, fn func(TID, Tuple) error) error {
	n := pg.NumPages(h.fid)
	for pageNo := uint32(0); pageNo < n; pageNo++ {
		id := PageID{File: h.fid, Page: pageNo}
		data, err := pg.Fetch(id, SeqHint)
		if err != nil {
			return err
		}
		sp := NewSlottedPage(data)
		numSlots := sp.NumSlots()
		for slot := 0; slot < numSlots; slot++ {
			rec, ok, err := sp.Get(uint16(slot))
			if err != nil {
				pg.Unpin(id, false)
				return err
			}
			if !ok {
				continue
			}
			t, err := DecodeTuple(rec)
			if err != nil {
				pg.Unpin(id, false)
				return err
			}
			if err := fn(TID{Page: pageNo, Slot: uint16(slot)}, t); err != nil {
				pg.Unpin(id, false)
				return err
			}
		}
		pg.Unpin(id, false)
	}
	return nil
}

// Iterator provides pull-based scanning for the executor's Volcano model.
type Iterator struct {
	h      *HeapFile
	pg     Pager
	pages  uint32
	pageNo uint32
	slot   int
	sp     *SlottedPage
	pinned bool
	id     PageID
}

// NewIterator starts a sequential scan of the heap file.
func (h *HeapFile) NewIterator(pg Pager) *Iterator {
	return &Iterator{h: h, pg: pg, pages: pg.NumPages(h.fid)}
}

// Next returns the next live tuple, or ok=false at end of file.
func (it *Iterator) Next() (TID, Tuple, bool, error) {
	for {
		if !it.pinned {
			if it.pageNo >= it.pages {
				return TID{}, nil, false, nil
			}
			it.id = PageID{File: it.h.fid, Page: it.pageNo}
			data, err := it.pg.Fetch(it.id, SeqHint)
			if err != nil {
				return TID{}, nil, false, err
			}
			it.sp = NewSlottedPage(data)
			it.pinned = true
			it.slot = 0
		}
		for it.slot < it.sp.NumSlots() {
			s := it.slot
			it.slot++
			rec, ok, err := it.sp.Get(uint16(s))
			if err != nil {
				it.Close()
				return TID{}, nil, false, err
			}
			if !ok {
				continue
			}
			t, err := DecodeTuple(rec)
			if err != nil {
				it.Close()
				return TID{}, nil, false, err
			}
			return TID{Page: it.pageNo, Slot: uint16(s)}, t, true, nil
		}
		it.pg.Unpin(it.id, false)
		it.pinned = false
		it.pageNo++
	}
}

// Close releases any pinned page; safe to call multiple times.
func (it *Iterator) Close() {
	if it.pinned {
		it.pg.Unpin(it.id, false)
		it.pinned = false
	}
}

// Delete marks the tuple at tid dead.
func (h *HeapFile) Delete(pg Pager, tid TID) error {
	id := PageID{File: h.fid, Page: tid.Page}
	data, err := pg.Fetch(id, RandHint)
	if err != nil {
		return err
	}
	sp := NewSlottedPage(data)
	err = sp.Delete(tid.Slot)
	pg.Unpin(id, err == nil)
	return err
}
