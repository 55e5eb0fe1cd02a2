// Package buffer implements the engine's buffer pool: a fixed set of page
// frames managed with clock-sweep replacement. The pool is the point where
// simulated I/O cost is charged to the owning virtual machine — a miss
// costs a sequential or random page read (per the caller's access hint),
// an eviction of a dirty frame costs a page write, and a hit costs a few
// CPU operations. The pool's capacity is derived from the VM's memory
// share, which is how the memory dimension of the virtualization design
// problem reaches query performance.
package buffer

import (
	"fmt"

	"dbvirt/internal/storage"
	"dbvirt/internal/vm"
)

// HitCPUOps is the CPU cost charged for a buffer hit (hash lookup + latch).
const HitCPUOps = 50

// Stats counts buffer pool events since creation.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	WriteBacks int64
}

// HitRate returns hits / (hits+misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Frame is one page slot of a pool and, to the caller of Pin, the handle on
// the pin it took.
type Frame struct {
	id storage.PageID
	// data is nil until the frame first needs page bytes (its first Data
	// or Allocate) and is then kept, and reused, until the pool dies; Pin
	// never creates it. A pool whose pages are only pinned holds none.
	data *storage.PageData
	pins int
	// loaded is false until data holds the bytes of the frame's current
	// page: Pin takes the frame without reading the disk, and whoever
	// first needs the bytes (Data, and through it Fetch) reads them. Only
	// a loaded frame can be dirty, so a dirty frame always has data.
	loaded   bool
	dirty    bool
	refBit   bool
	occupied bool
}

// Pool is a buffer pool bound to one VM. It is not safe for concurrent
// use; each session drives its pool from one goroutine.
//
// The page table is dense: table[file][page] holds the index of the frame
// caching that page plus one, and 0 for a page that is not resident, so a
// hit is two bounds checks and a load. A slot is written only once Probe or
// the disk's Allocate has shown the page exists, so no file's slice grows
// longer than the file — 4 bytes per page of the disk the pool has touched.
type Pool struct {
	disk   *storage.DiskManager
	vm     *vm.VM
	frames []Frame
	table  [][]int32
	hand   int
	stats  Stats
}

// NewPool creates a pool of the given number of frames. The frames hold
// no page bytes yet: each allocates its 8 KiB when it first needs them.
func NewPool(disk *storage.DiskManager, v *vm.VM, numFrames int) (*Pool, error) {
	if numFrames < 1 {
		return nil, fmt.Errorf("buffer: pool needs at least 1 frame, got %d", numFrames)
	}
	return &Pool{
		disk:   disk,
		vm:     v,
		frames: make([]Frame, numFrames),
	}, nil
}

// PoolSize returns the number of frames a VM holding memBytes of memory
// affords when bufferFrac of it goes to the pool and the rest to working
// memory (sorts, hash tables) and engine overhead.
func PoolSize(memBytes int64, bufferFrac float64) int {
	n := int(float64(memBytes) * bufferFrac / storage.PageSize)
	if n < 8 {
		n = 8
	}
	return n
}

// NumFrames returns the pool capacity.
func (p *Pool) NumFrames() int { return len(p.frames) }

// Stats returns a copy of the pool's event counters.
func (p *Pool) Stats() Stats { return p.stats }

// VM returns the virtual machine this pool charges.
func (p *Pool) VM() *vm.VM { return p.vm }

// Fetch pins the page and returns its data, reading it from disk on a miss.
func (p *Pool) Fetch(id storage.PageID, hint storage.AccessHint) (*storage.PageData, error) {
	f, err := p.Pin(id, hint)
	if err != nil {
		return nil, err
	}
	data, err := p.Data(f)
	if err != nil {
		p.Release(f)
	}
	return data, err
}

// Pin pins the page like Fetch — the same hit or miss, the same eviction
// and write-back, the same charges to the VM, in the same order — but
// leaves the page's bytes on disk until Data asks for them. A reader that
// holds the page's decoded form already (a cached column block) never
// does, and so never pays for the copy. A page that does not exist is an
// error and takes no frame.
func (p *Pool) Pin(id storage.PageID, hint storage.AccessHint) (*Frame, error) {
	if idx := p.lookup(id); idx >= 0 {
		f := &p.frames[idx]
		f.pins++
		f.refBit = true
		p.stats.Hits++
		p.vm.AccountCPU(HitCPUOps)
		return f, nil
	}
	if err := p.disk.Probe(id); err != nil {
		return nil, err
	}
	idx, err := p.victim()
	if err != nil {
		return nil, err
	}
	p.stats.Misses++
	switch hint {
	case storage.RandHint:
		p.vm.AccountRandRead(1)
	default:
		p.vm.AccountSeqRead(1)
	}
	f := &p.frames[idx]
	f.id = id
	f.pins = 1
	f.loaded = false
	f.dirty = false
	f.refBit = true
	f.occupied = true
	p.setSlot(id, idx)
	return f, nil
}

// Data returns the bytes of a pinned page, reading them from disk if no one
// has needed them since the page entered the pool.
func (p *Pool) Data(f *Frame) (*storage.PageData, error) {
	if !f.loaded {
		if f.data == nil {
			f.data = new(storage.PageData)
		}
		if err := p.disk.ReadPage(f.id, f.data); err != nil {
			return nil, err
		}
		f.loaded = true
	}
	return f.data, nil
}

// Release drops a pin taken by Pin; the page was not modified.
func (p *Pool) Release(f *Frame) {
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: Release of unpinned page %s", f.id))
	}
	f.pins--
}

// Unpin releases one pin on the page, marking the frame dirty if the
// caller modified it. Unpinning a page that is not resident or not pinned
// panics: it is a bug in the storage layer, never a runtime condition.
func (p *Pool) Unpin(id storage.PageID, dirty bool) {
	idx := p.lookup(id)
	if idx < 0 {
		panic(fmt.Sprintf("buffer: Unpin of non-resident page %s", id))
	}
	f := &p.frames[idx]
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: Unpin of unpinned page %s", id))
	}
	if dirty && !f.loaded {
		panic(fmt.Sprintf("buffer: dirty Unpin of page %s, whose bytes were never read", id))
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
}

// Allocate appends a zeroed page to the file and pins it in the pool.
// Allocation itself is not charged as a read; the eventual write-back of
// the dirty frame is charged. The frame is found first, so a pool with
// every frame pinned fails without growing the file.
func (p *Pool) Allocate(fid storage.FileID) (storage.PageID, *storage.PageData, error) {
	idx, err := p.victim()
	if err != nil {
		return storage.PageID{}, nil, err
	}
	pageNo, err := p.disk.Allocate(fid)
	if err != nil {
		return storage.PageID{}, nil, err
	}
	id := storage.PageID{File: fid, Page: pageNo}
	f := &p.frames[idx]
	if f.data == nil {
		f.data = new(storage.PageData)
	} else {
		*f.data = storage.PageData{}
	}
	f.id = id
	f.pins = 1
	f.loaded = true
	f.dirty = true // a new page must reach disk even if never re-dirtied
	f.refBit = true
	f.occupied = true
	p.setSlot(id, idx)
	return id, f.data, nil
}

// NumPages returns the length of the file in pages.
func (p *Pool) NumPages(f storage.FileID) uint32 { return p.disk.NumPages(f) }

// victim finds a free frame, evicting an unpinned page with the clock
// algorithm if necessary. The returned frame is unoccupied.
func (p *Pool) victim() (int, error) {
	n := len(p.frames)
	// Two full sweeps: the first clears reference bits, the second takes
	// any unpinned frame.
	for sweep := 0; sweep < 2*n; sweep++ {
		idx := p.hand
		p.hand = (p.hand + 1) % n
		f := &p.frames[idx]
		if !f.occupied {
			return idx, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.refBit {
			f.refBit = false
			continue
		}
		if err := p.evict(idx); err != nil {
			return 0, err
		}
		return idx, nil
	}
	return 0, fmt.Errorf("buffer: all %d frames pinned", n)
}

// evict writes back frame idx if dirty and removes it from the table.
func (p *Pool) evict(idx int) error {
	f := &p.frames[idx]
	if f.dirty {
		if err := p.disk.WritePage(f.id, f.data); err != nil {
			return err
		}
		p.vm.AccountWrite(1)
		p.stats.WriteBacks++
	}
	p.stats.Evictions++
	p.table[f.id.File][f.id.Page] = 0
	f.occupied = false
	return nil
}

// FlushAll writes every dirty resident page to disk (charging writes) but
// keeps pages resident. Used after bulk loads.
func (p *Pool) FlushAll() error {
	for i := range p.frames {
		f := &p.frames[i]
		if f.occupied && f.dirty {
			if err := p.disk.WritePage(f.id, f.data); err != nil {
				return err
			}
			p.vm.AccountWrite(1)
			p.stats.WriteBacks++
			f.dirty = false
		}
	}
	return nil
}

// Resident reports whether a page is currently in the pool (for tests).
func (p *Pool) Resident(id storage.PageID) bool { return p.lookup(id) >= 0 }

// lookup returns the index of the frame holding the page, or -1.
func (p *Pool) lookup(id storage.PageID) int {
	if int(id.File) < len(p.table) {
		if t := p.table[id.File]; int(id.Page) < len(t) {
			return int(t[id.Page]) - 1
		}
	}
	return -1
}

// setSlot records that frame idx holds the page, which must exist on disk.
func (p *Pool) setSlot(id storage.PageID, idx int) {
	if n := int(id.File) + 1; n > len(p.table) {
		p.table = append(p.table, make([][]int32, n-len(p.table))...)
	}
	t := p.table[id.File]
	if n := int(id.Page) + 1; n > len(t) {
		t = append(t, make([]int32, n-len(t))...)
		p.table[id.File] = t
	}
	t[id.Page] = int32(idx + 1)
}

// PinnedCount returns the number of frames with at least one pin.
func (p *Pool) PinnedCount() int {
	var n int
	for i := range p.frames {
		if p.frames[i].occupied && p.frames[i].pins > 0 {
			n++
		}
	}
	return n
}

var _ storage.Pager = (*Pool)(nil)
