package buffer

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dbvirt/internal/storage"
	"dbvirt/internal/types"
	"dbvirt/internal/vm"
)

func newTestVM(t *testing.T) *vm.VM {
	t.Helper()
	cfg := vm.DefaultMachineConfig()
	cfg.SchedOverhead = 0
	cfg.HypervisorIOOps = 0
	m := vm.MustMachine(cfg)
	v, err := m.NewVM("test", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func setup(t *testing.T, frames, pages int) (*Pool, storage.FileID) {
	t.Helper()
	disk := storage.NewDiskManager()
	f := disk.CreateFile()
	for i := 0; i < pages; i++ {
		pn, err := disk.Allocate(f)
		if err != nil {
			t.Fatal(err)
		}
		var buf storage.PageData
		buf[0] = byte(i)
		if err := disk.WritePage(storage.PageID{File: f, Page: pn}, &buf); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPool(disk, newTestVM(t), frames)
	if err != nil {
		t.Fatal(err)
	}
	return p, f
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(storage.NewDiskManager(), newTestVM(t), 0); err == nil {
		t.Error("zero frames should be rejected")
	}
}

func TestFetchHitAndMiss(t *testing.T) {
	p, f := setup(t, 4, 2)
	id := storage.PageID{File: f, Page: 1}
	data, err := p.Fetch(id, storage.SeqHint)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 {
		t.Errorf("page content = %d, want 1", data[0])
	}
	p.Unpin(id, false)
	if _, err := p.Fetch(id, storage.SeqHint); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, false)
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss 1 hit", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", st.HitRate())
	}
}

func TestFetchChargesVM(t *testing.T) {
	p, f := setup(t, 4, 3)
	v := p.vm
	before := v.Snapshot()
	p.Fetch(storage.PageID{File: f, Page: 0}, storage.SeqHint)
	p.Unpin(storage.PageID{File: f, Page: 0}, false)
	d := v.Since(before)
	if d.SeqReads != 1 || d.RandReads != 0 {
		t.Errorf("seq miss charged %d seq %d rand", d.SeqReads, d.RandReads)
	}
	before = v.Snapshot()
	p.Fetch(storage.PageID{File: f, Page: 1}, storage.RandHint)
	p.Unpin(storage.PageID{File: f, Page: 1}, false)
	d = v.Since(before)
	if d.RandReads != 1 {
		t.Errorf("rand miss charged %d rand reads", d.RandReads)
	}
	// A hit charges CPU only.
	before = v.Snapshot()
	p.Fetch(storage.PageID{File: f, Page: 1}, storage.RandHint)
	p.Unpin(storage.PageID{File: f, Page: 1}, false)
	d = v.Since(before)
	if d.RandReads != 0 || d.SeqReads != 0 {
		t.Error("hit should not charge I/O")
	}
	if d.CPUOps != HitCPUOps {
		t.Errorf("hit charged %g cpu ops, want %d", d.CPUOps, HitCPUOps)
	}
}

func TestEvictionAndWriteBack(t *testing.T) {
	p, f := setup(t, 2, 4)
	// Dirty page 0.
	id0 := storage.PageID{File: f, Page: 0}
	data, _ := p.Fetch(id0, storage.SeqHint)
	data[100] = 0xEE
	p.Unpin(id0, true)
	// Touch pages 1..3 to force eviction of page 0.
	for i := uint32(1); i < 4; i++ {
		id := storage.PageID{File: f, Page: i}
		if _, err := p.Fetch(id, storage.SeqHint); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	}
	if p.Resident(id0) {
		t.Fatal("page 0 should have been evicted")
	}
	st := p.Stats()
	if st.WriteBacks != 1 {
		t.Errorf("writebacks = %d, want 1", st.WriteBacks)
	}
	if p.vm.Snapshot().Writes != 1 {
		t.Errorf("VM writes = %d, want 1", p.vm.Snapshot().Writes)
	}
	// Refetch and confirm the modification survived eviction.
	data, err := p.Fetch(id0, storage.RandHint)
	if err != nil {
		t.Fatal(err)
	}
	if data[100] != 0xEE {
		t.Error("dirty page lost on eviction")
	}
	p.Unpin(id0, false)
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p, f := setup(t, 2, 4)
	id0 := storage.PageID{File: f, Page: 0}
	if _, err := p.Fetch(id0, storage.SeqHint); err != nil {
		t.Fatal(err)
	}
	// Pool has one free frame; cycle others through it.
	for i := uint32(1); i < 4; i++ {
		id := storage.PageID{File: f, Page: i}
		if _, err := p.Fetch(id, storage.SeqHint); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	}
	if !p.Resident(id0) {
		t.Error("pinned page was evicted")
	}
	p.Unpin(id0, false)
}

func TestAllFramesPinnedError(t *testing.T) {
	p, f := setup(t, 2, 3)
	p.Fetch(storage.PageID{File: f, Page: 0}, storage.SeqHint)
	p.Fetch(storage.PageID{File: f, Page: 1}, storage.SeqHint)
	if _, err := p.Fetch(storage.PageID{File: f, Page: 2}, storage.SeqHint); err == nil {
		t.Fatal("expected all-pinned error")
	}
	p.Unpin(storage.PageID{File: f, Page: 0}, false)
	if _, err := p.Fetch(storage.PageID{File: f, Page: 2}, storage.SeqHint); err != nil {
		t.Fatalf("fetch after unpin: %v", err)
	}
}

func TestUnpinPanicsOnBadUse(t *testing.T) {
	p, f := setup(t, 2, 2)
	mustPanic(t, func() { p.Unpin(storage.PageID{File: f, Page: 0}, false) })
	id := storage.PageID{File: f, Page: 0}
	p.Fetch(id, storage.SeqHint)
	p.Unpin(id, false)
	mustPanic(t, func() { p.Unpin(id, false) })
}

func TestAllocateThroughPool(t *testing.T) {
	disk := storage.NewDiskManager()
	f := disk.CreateFile()
	p, _ := NewPool(disk, newTestVM(t), 4)
	id, data, err := p.Allocate(f)
	if err != nil {
		t.Fatal(err)
	}
	data[7] = 0x77
	p.Unpin(id, true)
	if p.NumPages(f) != 1 {
		t.Errorf("NumPages = %d, want 1", p.NumPages(f))
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var buf storage.PageData
	if err := disk.ReadPage(id, &buf); err != nil {
		t.Fatal(err)
	}
	if buf[7] != 0x77 {
		t.Error("allocated page content not flushed")
	}
	if p.vm.Snapshot().Writes != 1 {
		t.Errorf("flush charged %d writes, want 1", p.vm.Snapshot().Writes)
	}
}

func TestNewPageSurvivesEvictionWithoutFlush(t *testing.T) {
	disk := storage.NewDiskManager()
	f := disk.CreateFile()
	p, _ := NewPool(disk, newTestVM(t), 2)
	id, data, _ := p.Allocate(f)
	data[0] = 0x42
	p.Unpin(id, false) // caller forgot dirty, but Allocate pre-dirtied
	// Force eviction.
	for i := 0; i < 3; i++ {
		id2, _, err := p.Allocate(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(id2, false)
	}
	var buf storage.PageData
	if err := disk.ReadPage(id, &buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x42 {
		t.Error("new page lost on eviction")
	}
}

func TestClockGivesRepeatedAccessPreference(t *testing.T) {
	p, f := setup(t, 3, 5)
	hot := storage.PageID{File: f, Page: 0}
	// Make page 0 hot: fetch it repeatedly while cycling others.
	for round := 0; round < 10; round++ {
		if _, err := p.Fetch(hot, storage.SeqHint); err != nil {
			t.Fatal(err)
		}
		p.Unpin(hot, false)
		cold := storage.PageID{File: f, Page: uint32(1 + round%4)}
		if _, err := p.Fetch(cold, storage.SeqHint); err != nil {
			t.Fatal(err)
		}
		p.Unpin(cold, false)
	}
	if !p.Resident(hot) {
		t.Error("hot page evicted by clock despite frequent reference")
	}
}

func TestPoolSizeForVM(t *testing.T) {
	cfg := vm.DefaultMachineConfig()
	cfg.MemBytes = 64 << 20
	m := vm.MustMachine(cfg)
	v, _ := m.NewVM("v", vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
	// 32 MiB * 0.75 / 8KiB = 3072 frames.
	if got := PoolSize(v.MemBytes(), 0.75); got != 3072 {
		t.Errorf("PoolSize = %d, want 3072", got)
	}
	tiny, _ := m.NewVM("tiny", vm.Shares{CPU: 0.01, Memory: 0.001, IO: 0.01})
	if got := PoolSize(tiny.MemBytes(), 0.1); got < 8 {
		t.Errorf("pool floor violated: %d", got)
	}
}

func TestPoolWorksWithHeapFile(t *testing.T) {
	disk := storage.NewDiskManager()
	f := disk.CreateFile()
	p, _ := NewPool(disk, newTestVM(t), 16)
	h := storage.NewHeapFile(f)
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := h.Insert(p, storage.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	err := h.Scan(p, func(_ storage.TID, tup storage.Tuple) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("scan through pool saw %d, want %d", count, n)
	}
	if p.PinnedCount() != 0 {
		t.Errorf("%d frames pinned after scan", p.PinnedCount())
	}
}

func TestHitRateImprovesWithLargerPool(t *testing.T) {
	run := func(frames int) float64 {
		p, f := setup(t, frames, 32)
		for round := 0; round < 4; round++ {
			for pg := uint32(0); pg < 32; pg++ {
				id := storage.PageID{File: f, Page: pg}
				if _, err := p.Fetch(id, storage.SeqHint); err != nil {
					t.Fatal(err)
				}
				p.Unpin(id, false)
			}
		}
		return p.Stats().HitRate()
	}
	small := run(4)
	large := run(64)
	if large <= small {
		t.Errorf("hit rate should improve with pool size: small=%g large=%g", small, large)
	}
	if large < 0.7 {
		t.Errorf("pool larger than working set should mostly hit, got %g", large)
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

// TestPinIsFetchWithoutTheBytes drives two pools over identical disks with
// one random sequence of reads, writes, allocations and flushes; the first
// reads through Fetch, the twin through Pin — asking for the bytes with
// Data only some of the time, and always before writing. After every step
// the two must agree on everything but the bytes nobody asked for: event
// counters, the VM's usage, which pages are resident and pinned, and the
// clock hand. At the end the disks must hold the same bytes: a frame whose
// bytes were never read is never dirty, so it is never written back.
func TestPinIsFetchWithoutTheBytes(t *testing.T) {
	const frames, pages = 5, 12
	fetchPool, f := setup(t, frames, pages)
	pinPool, f2 := setup(t, frames, pages)
	if f != f2 {
		t.Fatalf("file ids differ: %d, %d", f, f2)
	}
	rng := rand.New(rand.NewSource(11))
	type pin struct {
		id    storage.PageID
		frame *Frame // the twin's handle; nil when it pinned by Fetch or Allocate
	}
	var pins []pin
	numPages := uint32(pages)
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // read a page, sometimes one that does not exist
			id := storage.PageID{File: f, Page: uint32(rng.Intn(int(numPages) + 1))}
			hint := storage.AccessHint(rng.Intn(2))
			_, err := fetchPool.Fetch(id, hint)
			fr, err2 := pinPool.Pin(id, hint)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("step %d: Fetch(%s) = %v, Pin = %v", step, id, err, err2)
			}
			if err != nil {
				continue
			}
			if rng.Intn(3) == 0 {
				if _, err := pinPool.Data(fr); err != nil {
					t.Fatal(err)
				}
			}
			pins = append(pins, pin{id, fr})
		case op < 8 && len(pins) > 0: // drop a pin, sometimes after writing
			k := rng.Intn(len(pins))
			p := pins[k]
			pins = append(pins[:k], pins[k+1:]...)
			dirty := rng.Intn(3) == 0
			if dirty {
				// Both write the same byte through the pin they hold.
				b := byte(rng.Intn(256))
				data, err := fetchPool.Fetch(p.id, storage.SeqHint)
				if err != nil {
					t.Fatal(err)
				}
				data[1] = b
				fetchPool.Unpin(p.id, false)
				if data, err = pinPool.Fetch(p.id, storage.SeqHint); err != nil {
					t.Fatal(err)
				}
				data[1] = b
				pinPool.Unpin(p.id, false)
			}
			fetchPool.Unpin(p.id, dirty)
			if p.frame != nil && !dirty {
				pinPool.Release(p.frame)
			} else {
				pinPool.Unpin(p.id, dirty)
			}
		case op == 8:
			id, _, err := fetchPool.Allocate(f)
			id2, _, err2 := pinPool.Allocate(f)
			if (err == nil) != (err2 == nil) || id != id2 {
				t.Fatalf("step %d: Allocate = %s, %v; twin %s, %v", step, id, err, id2, err2)
			}
			numPages = fetchPool.NumPages(f)
			if err == nil {
				pins = append(pins, pin{id: id})
			}
		default:
			if err := fetchPool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := pinPool.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := fetchPool.Stats(), pinPool.Stats(); a != b {
			t.Fatalf("step %d: stats %+v, twin %+v", step, a, b)
		}
		if a, b := fetchPool.vm.Snapshot(), pinPool.vm.Snapshot(); a != b {
			t.Fatalf("step %d: VM usage %+v, twin %+v", step, a, b)
		}
		if fetchPool.hand != pinPool.hand || fetchPool.PinnedCount() != pinPool.PinnedCount() {
			t.Fatalf("step %d: hand %d pinned %d, twin hand %d pinned %d", step,
				fetchPool.hand, fetchPool.PinnedCount(), pinPool.hand, pinPool.PinnedCount())
		}
		for pg := uint32(0); pg < numPages; pg++ {
			id := storage.PageID{File: f, Page: pg}
			if fetchPool.Resident(id) != pinPool.Resident(id) {
				t.Fatalf("step %d: page %s resident %v, twin %v", step, id, fetchPool.Resident(id), pinPool.Resident(id))
			}
		}
		for i := range pinPool.frames {
			if fr := &pinPool.frames[i]; fr.dirty && !fr.loaded {
				t.Fatalf("step %d: frame %d is dirty but its bytes were never read", step, i)
			}
		}
	}
	for _, pool := range []*Pool{fetchPool, pinPool} {
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	for pg := uint32(0); pg < numPages; pg++ {
		id := storage.PageID{File: f, Page: pg}
		var a, b storage.PageData
		if err := fetchPool.disk.ReadPage(id, &a); err != nil {
			t.Fatal(err)
		}
		if err := pinPool.disk.ReadPage(id, &b); err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("page %s differs between the two disks", id)
		}
	}
}

func TestPinDefersTheRead(t *testing.T) {
	p, f := setup(t, 1, 3)
	page := func(n uint32) storage.PageID { return storage.PageID{File: f, Page: n} }

	// A page that does not exist: an error, no frame taken, no pin left.
	if _, err := p.Fetch(page(0), storage.SeqHint); err != nil {
		t.Fatal(err)
	}
	p.Unpin(page(0), false)
	before := p.Stats()
	if _, err := p.Pin(page(3), storage.SeqHint); err == nil {
		t.Fatal("Pin of a nonexistent page succeeded")
	}
	if p.Stats() != before || p.PinnedCount() != 0 || !p.Resident(page(0)) || p.Resident(page(3)) {
		t.Fatalf("failed Pin left a trace: stats %+v (before %+v), %d pinned", p.Stats(), before, p.PinnedCount())
	}

	// Pin evicts page 0 but leaves its bytes in the frame; Fetch of the
	// pinned page must still return the disk's.
	fr, err := p.Pin(page(1), storage.SeqHint)
	if err != nil {
		t.Fatal(err)
	}
	if fr.loaded {
		t.Fatal("Pin read the page")
	}
	p.Release(fr)
	data, err := p.Fetch(page(1), storage.SeqHint)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 {
		t.Fatalf("Fetch after Pin returned byte %d, want page 1's", data[0])
	}
	p.Unpin(page(1), false)

	// A frame whose bytes were never read cannot be marked dirty, and its
	// eviction writes nothing back.
	if _, err = p.Pin(page(2), storage.SeqHint); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, func() { p.Unpin(page(2), true) })
	p.Unpin(page(2), false)
	if _, err := p.Fetch(page(0), storage.SeqHint); err != nil {
		t.Fatal(err)
	}
	p.Unpin(page(0), false)
	if wb := p.Stats().WriteBacks; wb != 0 {
		t.Fatalf("%d write-backs, want 0", wb)
	}
	var onDisk storage.PageData
	if err := p.disk.ReadPage(page(2), &onDisk); err != nil || onDisk[0] != 2 {
		t.Fatalf("page 2 on disk: byte %d, err %v", onDisk[0], err)
	}
}

// TestFailedAllocateLeavesTheFileAlone: with every frame pinned, Allocate
// fails — and must not have grown the file, or the next insert skips an
// empty page that every later scan reads and pays for.
func TestFailedAllocateLeavesTheFileAlone(t *testing.T) {
	disk := storage.NewDiskManager()
	heapFID, other := disk.CreateFile(), disk.CreateFile()
	p, err := NewPool(disk, newTestVM(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	h := storage.NewHeapFile(heapFID)
	row := storage.Tuple{types.NewInt(1)}
	if _, err := h.Insert(p, row); err != nil {
		t.Fatal(err)
	}
	held, _, err := p.Allocate(other) // takes the only frame
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Allocate(heapFID); err == nil {
		t.Fatal("Allocate succeeded with every frame pinned")
	}
	if n := p.NumPages(heapFID); n != 1 {
		t.Fatalf("failed Allocate grew the file to %d pages, want 1", n)
	}
	p.Unpin(held, true)
	tid, err := h.Insert(p, row)
	if err != nil {
		t.Fatal(err)
	}
	if tid.Page != 0 || p.NumPages(heapFID) != 1 {
		t.Fatalf("second row landed at %s in a file of %d pages, want page 0 of 1", tid, p.NumPages(heapFID))
	}
}

// mapPool is the reference the dense page table is checked against: the
// pool with a map for its page table and otherwise the same clock sweep,
// the same events and the same charges in the same order. Frames are
// named by index.
type mapPool struct {
	disk   *storage.DiskManager
	vm     *vm.VM
	frames []Frame
	table  map[storage.PageID]int
	hand   int
	stats  Stats
}

func (p *mapPool) pin(id storage.PageID, hint storage.AccessHint) (int, error) {
	if idx, ok := p.table[id]; ok {
		f := &p.frames[idx]
		f.pins++
		f.refBit = true
		p.stats.Hits++
		p.vm.AccountCPU(HitCPUOps)
		return idx, nil
	}
	if err := p.disk.Probe(id); err != nil {
		return -1, err
	}
	idx, err := p.victim()
	if err != nil {
		return -1, err
	}
	p.stats.Misses++
	if hint == storage.RandHint {
		p.vm.AccountRandRead(1)
	} else {
		p.vm.AccountSeqRead(1)
	}
	p.frames[idx] = Frame{id: id, data: p.frames[idx].data, pins: 1, refBit: true, occupied: true}
	p.table[id] = idx
	return idx, nil
}

func (p *mapPool) load(idx int) error {
	f := &p.frames[idx]
	if !f.loaded {
		if f.data == nil {
			f.data = new(storage.PageData)
		}
		if err := p.disk.ReadPage(f.id, f.data); err != nil {
			return err
		}
		f.loaded = true
	}
	return nil
}

func (p *mapPool) unpin(id storage.PageID, dirty bool) {
	f := &p.frames[p.table[id]]
	f.pins--
	if dirty {
		f.dirty = true
	}
}

func (p *mapPool) allocate(fid storage.FileID) (storage.PageID, error) {
	idx, err := p.victim()
	if err != nil {
		return storage.PageID{}, err
	}
	pageNo, err := p.disk.Allocate(fid)
	if err != nil {
		return storage.PageID{}, err
	}
	id := storage.PageID{File: fid, Page: pageNo}
	data := p.frames[idx].data
	if data == nil {
		data = new(storage.PageData)
	} else {
		*data = storage.PageData{}
	}
	p.frames[idx] = Frame{id: id, data: data, pins: 1, loaded: true, dirty: true, refBit: true, occupied: true}
	p.table[id] = idx
	return id, nil
}

func (p *mapPool) victim() (int, error) {
	n := len(p.frames)
	for sweep := 0; sweep < 2*n; sweep++ {
		idx := p.hand
		p.hand = (p.hand + 1) % n
		f := &p.frames[idx]
		switch {
		case !f.occupied:
			return idx, nil
		case f.pins > 0:
		case f.refBit:
			f.refBit = false
		default:
			if f.dirty {
				if err := p.disk.WritePage(f.id, f.data); err != nil {
					return 0, err
				}
				p.vm.AccountWrite(1)
				p.stats.WriteBacks++
			}
			p.stats.Evictions++
			delete(p.table, f.id)
			f.occupied = false
			return idx, nil
		}
	}
	return 0, fmt.Errorf("all %d frames pinned", n)
}

func (p *mapPool) flushAll() error {
	for i := range p.frames {
		if f := &p.frames[i]; f.occupied && f.dirty {
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

// TestPoolMatchesMapModel drives the pool and the map-table reference over
// identical disks of three files with one seeded random sequence of Pin,
// Fetch, Release, Unpin (clean or dirty), Allocate and FlushAll, including
// pages and files that do not exist. After every step the two must agree
// on the frame each call returned, every frame's state and bytes, the
// clock hand, Stats, which pages are resident and the VM's usage.
func TestPoolMatchesMapModel(t *testing.T) {
	fileSizes := []int{5, 2, 9}
	newDisk := func() (*storage.DiskManager, []storage.FileID) {
		disk := storage.NewDiskManager()
		var fids []storage.FileID
		for fi, n := range fileSizes {
			fid := disk.CreateFile()
			fids = append(fids, fid)
			for pg := 0; pg < n; pg++ {
				pn, err := disk.Allocate(fid)
				if err != nil {
					t.Fatal(err)
				}
				var buf storage.PageData
				buf[0], buf[1] = byte(fi), byte(pg)
				if err := disk.WritePage(storage.PageID{File: fid, Page: pn}, &buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		return disk, fids
	}
	for _, frames := range []int{1, 3, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			disk, fids := newDisk()
			refDisk, _ := newDisk()
			p, err := NewPool(disk, newTestVM(t), frames)
			if err != nil {
				t.Fatal(err)
			}
			ref := &mapPool{disk: refDisk, vm: newTestVM(t), frames: make([]Frame, frames), table: map[storage.PageID]int{}}
			// One file id beyond the disk's, so lookups and allocations
			// of a file that does not exist are exercised too.
			files := append(fids, fids[len(fids)-1]+1)
			rng := rand.New(rand.NewSource(seed))
			type pin struct {
				id    storage.PageID
				frame *Frame // non-nil for a pin taken by Pin and not yet read
			}
			var pins []pin
			frameIndex := func(f *Frame) int {
				for i := range p.frames {
					if &p.frames[i] == f {
						return i
					}
				}
				t.Fatalf("frame %p is not one of the pool's", f)
				return -1
			}
			for step := 0; step < 3000; step++ {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("frames %d seed %d step %d: %s", frames, seed, step, fmt.Sprintf(format, args...))
				}
				fid := files[rng.Intn(len(files))]
				switch op := rng.Intn(12); {
				case op < 5: // Pin or Fetch, sometimes one page past the end
					id := storage.PageID{File: fid, Page: uint32(rng.Intn(int(disk.NumPages(fid)) + 1))}
					hint := storage.AccessHint(rng.Intn(2))
					fetch := op < 2
					var fr *Frame
					var err error
					if fetch {
						_, err = p.Fetch(id, hint)
					} else {
						fr, err = p.Pin(id, hint)
					}
					idx, refErr := ref.pin(id, hint)
					if (err == nil) != (refErr == nil) {
						fail("pin %s: %v, reference %v", id, err, refErr)
					}
					if err != nil {
						continue
					}
					if fetch {
						if err := ref.load(idx); err != nil {
							t.Fatal(err)
						}
						fr = nil
					} else if got := frameIndex(fr); got != idx {
						fail("pin %s took frame %d, reference %d", id, got, idx)
					}
					pins = append(pins, pin{id, fr})
				case op < 8 && len(pins) > 0: // drop a pin, sometimes after writing
					k := rng.Intn(len(pins))
					pn := pins[k]
					pins = append(pins[:k], pins[k+1:]...)
					dirty := rng.Intn(3) == 0
					if pn.frame != nil && !dirty {
						p.Release(pn.frame)
						ref.unpin(pn.id, false)
						break
					}
					if dirty {
						if pn.frame != nil {
							if _, err := p.Data(pn.frame); err != nil {
								t.Fatal(err)
							}
						}
						f, idx := &p.frames[p.lookup(pn.id)], ref.table[pn.id]
						if err := ref.load(idx); err != nil {
							t.Fatal(err)
						}
						b := byte(rng.Intn(256))
						f.data[2], ref.frames[idx].data[2] = b, b
					}
					p.Unpin(pn.id, dirty)
					ref.unpin(pn.id, dirty)
				case op < 10:
					id, _, err := p.Allocate(fid)
					refID, refErr := ref.allocate(fid)
					if (err == nil) != (refErr == nil) || id != refID {
						fail("Allocate(%d) = %s, %v; reference %s, %v", fid, id, err, refID, refErr)
					}
					if err == nil {
						pins = append(pins, pin{id: id})
					}
				default:
					if err, refErr := p.FlushAll(), ref.flushAll(); err != nil || refErr != nil {
						fail("FlushAll: %v, reference %v", err, refErr)
					}
				}
				if p.stats != ref.stats || p.hand != ref.hand {
					fail("stats %+v hand %d, reference %+v hand %d", p.stats, p.hand, ref.stats, ref.hand)
				}
				if a, b := p.vm.Snapshot(), ref.vm.Snapshot(); a != b {
					fail("VM usage %+v, reference %+v", a, b)
				}
				for i := range p.frames {
					got, want := p.frames[i], ref.frames[i]
					if (got.data == nil) != (want.data == nil) {
						fail("frame %d has page bytes %v, reference %v", i, got.data != nil, want.data != nil)
					}
					if got.data != nil && *got.data != *want.data {
						fail("frame %d's bytes differ from the reference's", i)
					}
					got.data, want.data = nil, nil
					if got != want {
						fail("frame %d differs from the reference's", i)
					}
				}
				for _, f := range files {
					for pg := uint32(0); pg <= disk.NumPages(f); pg++ {
						id := storage.PageID{File: f, Page: pg}
						if _, ok := ref.table[id]; p.Resident(id) != ok {
							fail("page %s resident %v, reference %v", id, p.Resident(id), ok)
						}
					}
					if disk.NumPages(f) != refDisk.NumPages(f) {
						fail("file %d has %d pages, reference %d", f, disk.NumPages(f), refDisk.NumPages(f))
					}
				}
			}
		}
	}
}

// TestFramesHoldBytesOnlyOnceNeeded checks the pool's memory contract: a
// new pool holds no page bytes, Pin never creates them, and once every
// frame has its bytes, reading through the pool allocates nothing.
func TestFramesHoldBytesOnlyOnceNeeded(t *testing.T) {
	const frames, pages = 1024, 1500
	p, f := setup(t, frames, pages)
	totalAlloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}

	// An eighth of the frames' bytes: room for the frame headers and the
	// page table, none for the pages.
	const limit = frames * storage.PageSize / 8
	before := totalAlloc()
	if _, err := NewPool(p.disk, p.vm, frames); err != nil {
		t.Fatal(err)
	}
	if got := totalAlloc() - before; got >= limit {
		t.Errorf("NewPool of %d frames allocated %d bytes, want under %d", frames, got, limit)
	}

	before = totalAlloc()
	for pg := uint32(0); pg < pages; pg++ {
		fr, err := p.Pin(storage.PageID{File: f, Page: pg}, storage.SeqHint)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(fr)
	}
	if got := totalAlloc() - before; got >= limit {
		t.Errorf("Pin and Release of %d pages allocated %d bytes, want under %d", pages, got, limit)
	}
	for i := range p.frames {
		if p.frames[i].data != nil {
			t.Fatalf("frame %d holds page bytes after only Pin and Release", i)
		}
	}

	pass := func() {
		for pg := uint32(0); pg < pages; pg++ {
			id := storage.PageID{File: f, Page: pg}
			if _, err := p.Fetch(id, storage.SeqHint); err != nil {
				t.Fatal(err)
			}
			p.Unpin(id, false)
		}
	}
	pass() // every frame gets its bytes
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Errorf("a warm Fetch/Unpin pass over %d pages in %d frames made %v allocations, want 0", pages, frames, allocs)
	}
}
