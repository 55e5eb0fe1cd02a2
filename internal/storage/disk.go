// Package storage implements the on-disk layer of the engine: a simulated
// disk of fixed-size pages, slotted data pages, tuple encoding, and heap
// files. Disk contents live in host memory, but every page access flows
// through a Pager (the buffer pool) which charges simulated I/O time to
// the owning virtual machine, so access costs behave like a real disk.
package storage

import (
	"fmt"
	"sync"
)

// PageSize is the size of every disk page in bytes (8 KiB, as PostgreSQL).
const PageSize = 8192

// FileID identifies one file (relation or index) on the simulated disk.
type FileID uint32

// PageID identifies one page of one file.
type PageID struct {
	File FileID
	Page uint32
}

// String formats the page ID for diagnostics.
func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.Page) }

// PageData is the raw content of one page.
type PageData [PageSize]byte

// AccessHint tells the buffer pool whether a fetch is part of a sequential
// scan or a random probe, which determines the simulated I/O cost of a miss.
type AccessHint int

// Access hints.
const (
	SeqHint AccessHint = iota
	RandHint
)

// Pager is the interface through which heap files and indexes access
// pages. The buffer pool implements it. Fetch and Allocate pin the page;
// the caller must Unpin it exactly once, marking it dirty if modified.
type Pager interface {
	// Fetch pins page id and returns its data.
	Fetch(id PageID, hint AccessHint) (*PageData, error)
	// Unpin releases a pin taken by Fetch or Allocate.
	Unpin(id PageID, dirty bool)
	// Allocate appends a zeroed page to the file, pins it, and returns it.
	Allocate(f FileID) (PageID, *PageData, error)
	// NumPages returns the current length of the file in pages.
	NumPages(f FileID) uint32
}

// DiskManager is the simulated disk: a set of growable files of pages.
// It performs no cost accounting itself — that is the buffer pool's job —
// and is safe for concurrent use so one loaded database can be shared by
// sessions running in different VMs.
type DiskManager struct {
	mu    sync.RWMutex
	files map[FileID][]*PageData
	next  FileID
}

// NewDiskManager creates an empty disk.
func NewDiskManager() *DiskManager {
	return &DiskManager{files: make(map[FileID][]*PageData), next: 1}
}

// CreateFile allocates a new empty file and returns its ID.
func (d *DiskManager) CreateFile() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.next
	d.next++
	d.files[id] = nil
	return id
}

// Allocate appends a zeroed page to file f and returns its page number.
func (d *DiskManager) Allocate(f FileID) (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[f]
	if !ok {
		return 0, fmt.Errorf("storage: unknown file %d", f)
	}
	d.files[f] = append(pages, new(PageData))
	return uint32(len(pages)), nil
}

// ReadPage copies page id into buf.
func (d *DiskManager) ReadPage(id PageID, buf *PageData) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	page, err := d.page(id)
	if err != nil {
		return err
	}
	*buf = *page
	return nil
}

// Probe fails exactly when ReadPage of page id would, without copying the
// page.
func (d *DiskManager) Probe(id PageID) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, err := d.page(id)
	return err
}

// page returns the stored page id; the caller holds d.mu.
func (d *DiskManager) page(id PageID) (*PageData, error) {
	pages, ok := d.files[id.File]
	if !ok || id.Page >= uint32(len(pages)) {
		return nil, fmt.Errorf("storage: read of nonexistent page %s", id)
	}
	return pages[id.Page], nil
}

// WritePage copies buf onto page id.
func (d *DiskManager) WritePage(id PageID, buf *PageData) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[id.File]
	if !ok || id.Page >= uint32(len(pages)) {
		return fmt.Errorf("storage: write of nonexistent page %s", id)
	}
	*pages[id.Page] = *buf
	return nil
}

// NumPages returns the length of file f in pages (0 for unknown files).
func (d *DiskManager) NumPages(f FileID) uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return uint32(len(d.files[f]))
}

// Files returns all file IDs in ascending order; used by image export.
func (d *DiskManager) Files() []FileID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]FileID, 0, len(d.files))
	for id := range d.files {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RestoreFile recreates file id with the given pages, which it takes
// over; used by image import. It fails if the file already exists.
func (d *DiskManager) RestoreFile(id FileID, pages []*PageData) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.files[id]; exists {
		return fmt.Errorf("storage: file %d already exists", id)
	}
	d.files[id] = pages
	if id >= d.next {
		d.next = id + 1
	}
	return nil
}
