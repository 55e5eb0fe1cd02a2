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

// GetAt fetches the tuple at the given TID under the caller's access
// hint: RandHint for a random access, SeqHint for an index scan over a
// well-correlated index.
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
