package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dbvirt/internal/types"
)

func TestDiskManagerBasics(t *testing.T) {
	d := NewDiskManager()
	f := d.CreateFile()
	if d.NumPages(f) != 0 {
		t.Fatal("new file should be empty")
	}
	p0, err := d.Allocate(f)
	if err != nil || p0 != 0 {
		t.Fatalf("first page = %d, %v", p0, err)
	}
	p1, _ := d.Allocate(f)
	if p1 != 1 || d.NumPages(f) != 2 {
		t.Fatalf("second page = %d, pages = %d", p1, d.NumPages(f))
	}

	var buf PageData
	buf[0] = 0xAB
	if err := d.WritePage(PageID{f, 1}, &buf); err != nil {
		t.Fatal(err)
	}
	var out PageData
	if err := d.ReadPage(PageID{f, 1}, &out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAB {
		t.Error("page content not persisted")
	}
	// Pages are copies, not aliases.
	buf[0] = 0xCD
	if err := d.ReadPage(PageID{f, 1}, &out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAB {
		t.Error("disk page aliases caller buffer")
	}
}

func TestDiskManagerErrors(t *testing.T) {
	d := NewDiskManager()
	f := d.CreateFile()
	var buf PageData
	if err := d.ReadPage(PageID{f, 0}, &buf); err == nil {
		t.Error("read past end should fail")
	}
	if err := d.WritePage(PageID{99, 0}, &buf); err == nil {
		t.Error("write to unknown file should fail")
	}
	if _, err := d.Allocate(99); err == nil {
		t.Error("allocate in unknown file should fail")
	}
	if d.NumPages(99) != 0 {
		t.Error("unknown file should have 0 pages")
	}
}

func TestDiskManagerSeparateFiles(t *testing.T) {
	d := NewDiskManager()
	f1, f2 := d.CreateFile(), d.CreateFile()
	if f1 == f2 {
		t.Fatal("file IDs must be distinct")
	}
	if _, err := d.Allocate(f1); err != nil {
		t.Fatal(err)
	}
	if d.NumPages(f2) != 0 {
		t.Error("files must not share pages")
	}
}

func sampleTuples() []Tuple {
	return []Tuple{
		{},
		{types.Null},
		{types.NewInt(42)},
		{types.NewInt(-1), types.NewFloat(3.75), types.NewString("hello"), types.NewBool(true), types.MustDate("1995-06-17"), types.Null},
		{types.NewString("")},
		{types.NewString(strings.Repeat("x", 1000))},
		{types.NewBool(false), types.NewBool(true)},
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	for i, tup := range sampleTuples() {
		enc := EncodeTuple(tup)
		dec, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(dec) != len(tup) {
			t.Fatalf("case %d: len %d != %d", i, len(dec), len(tup))
		}
		for j := range tup {
			if tup[j].IsNull() != dec[j].IsNull() {
				t.Errorf("case %d field %d: null mismatch", i, j)
			}
			if !tup[j].IsNull() && !types.Equal(tup[j], dec[j]) {
				t.Errorf("case %d field %d: %v != %v", i, j, tup[j], dec[j])
			}
		}
	}
}

func TestTupleCodecProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, dateRaw uint16) bool {
		if len(s) > 60000 {
			s = s[:60000]
		}
		tup := Tuple{
			types.NewInt(i), types.NewFloat(fl), types.NewString(s),
			types.NewBool(b), types.NewDate(int64(dateRaw)), types.Null,
		}
		dec, err := DecodeTuple(EncodeTuple(tup))
		if err != nil || len(dec) != len(tup) {
			return false
		}
		// Floats compare by bits via Equal unless NaN; skip NaN.
		for j := range tup {
			if tup[j].IsNull() {
				if !dec[j].IsNull() {
					return false
				}
				continue
			}
			if tup[j].Kind == types.KindFloat && fl != fl { // NaN
				continue
			}
			if !types.Equal(tup[j], dec[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodedLenProperty checks EncodedLen against the encoder over random
// tuples of every kind, NULLs, empty strings and the empty tuple among them.
func TestEncodedLenProperty(t *testing.T) {
	f := func(kinds []uint8, strs []string, n int64) bool {
		tup := Tuple{}
		for i, k := range kinds {
			s := ""
			if len(strs) > 0 && i%3 != 0 { // every third string is empty
				s = strs[i%len(strs)]
			}
			var v types.Value
			switch k % 6 {
			case 0:
				v = types.Null
			case 1:
				v = types.NewInt(n + int64(i))
			case 2:
				v = types.NewFloat(float64(n) / 3)
			case 3:
				v = types.NewString(s)
			case 4:
				v = types.NewBool(i%2 == 0)
			case 5:
				v = types.NewDate(int64(i))
			}
			tup = append(tup, v)
		}
		return EncodedLen(tup) == len(EncodeTuple(tup))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for i, tup := range sampleTuples() {
		if got, want := EncodedLen(tup), len(EncodeTuple(tup)); got != want {
			t.Errorf("case %d: EncodedLen = %d, len(EncodeTuple) = %d", i, got, want)
		}
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{1},
		{1, 0},                      // one field, no kind byte
		{1, 0, byte(types.KindInt)}, // int without payload
		{1, 0, byte(types.KindString), 5, 0, 'a'}, // string shorter than length
		{1, 0, 200}, // unknown kind
	}
	for i, b := range bad {
		if _, err := DecodeTuple(b); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestSlottedPageInsertGet(t *testing.T) {
	var data PageData
	sp := NewSlottedPage(&data)
	sp.Init()
	if sp.NumSlots() != 0 {
		t.Fatal("fresh page should have no slots")
	}
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte(""), []byte("gamma")}
	for i, r := range recs {
		slot, err := sp.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		if int(slot) != i {
			t.Errorf("slot = %d, want %d", slot, i)
		}
	}
	for i, r := range recs {
		got, ok, err := sp.Get(uint16(i))
		if err != nil || !ok {
			t.Fatalf("Get(%d): %v %v", i, ok, err)
		}
		if string(got) != string(r) {
			t.Errorf("Get(%d) = %q, want %q", i, got, r)
		}
	}
	if _, _, err := sp.Get(99); err == nil {
		t.Error("out-of-range Get should fail")
	}
}

func TestSlottedPageDelete(t *testing.T) {
	var data PageData
	sp := NewSlottedPage(&data)
	sp.Init()
	sp.Insert([]byte("a"))
	sp.Insert([]byte("b"))
	if err := sp.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := sp.Get(0); ok {
		t.Error("deleted slot should report not-ok")
	}
	if got, ok, _ := sp.Get(1); !ok || string(got) != "b" {
		t.Error("other slot should survive delete")
	}
	if err := sp.Delete(9); err == nil {
		t.Error("out-of-range delete should fail")
	}
}

func TestSlottedPageFillsUp(t *testing.T) {
	var data PageData
	sp := NewSlottedPage(&data)
	sp.Init()
	rec := make([]byte, 100)
	count := 0
	for {
		if _, err := sp.Insert(rec); err != nil {
			break
		}
		count++
	}
	// ~ (8192-6)/104 records fit.
	if count < 70 || count > 80 {
		t.Errorf("page held %d 100-byte records, expected ~78", count)
	}
	// All still readable.
	for i := 0; i < count; i++ {
		if _, ok, err := sp.Get(uint16(i)); !ok || err != nil {
			t.Fatalf("slot %d unreadable after fill", i)
		}
	}
}

func TestSlottedPageRejectsOversized(t *testing.T) {
	var data PageData
	sp := NewSlottedPage(&data)
	sp.Init()
	if _, err := sp.Insert(make([]byte, PageSize)); err == nil {
		t.Error("oversized record must be rejected")
	}
}

func TestHeapFileInsertGetScan(t *testing.T) {
	d := NewDiskManager()
	pg := NewDirectPager(d)
	h := NewHeapFile(d.CreateFile())

	const n = 500
	tids := make([]TID, n)
	for i := 0; i < n; i++ {
		tup := Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("row-%d", i))}
		tid, err := h.Insert(pg, tup)
		if err != nil {
			t.Fatal(err)
		}
		tids[i] = tid
	}
	if pg.NumPages(h.FileID()) < 2 {
		t.Error("500 rows should span multiple pages")
	}
	// Random access.
	for _, i := range []int{0, 1, 250, 499} {
		tup, err := h.GetAt(pg, tids[i], RandHint)
		if err != nil {
			t.Fatal(err)
		}
		if tup[0].I != int64(i) {
			t.Errorf("Get(%v)[0] = %d, want %d", tids[i], tup[0].I, i)
		}
	}
	// Full scan in physical = insertion order.
	var seen int
	err := h.Scan(pg, func(tid TID, tup Tuple) error {
		if tup[0].I != int64(seen) {
			return fmt.Errorf("out of order: got %d at position %d", tup[0].I, seen)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Errorf("scan saw %d rows, want %d", seen, n)
	}
	if pg.PinnedCount() != 0 {
		t.Errorf("%d pages left pinned", pg.PinnedCount())
	}
}

func TestHeapFileDelete(t *testing.T) {
	d := NewDiskManager()
	pg := NewDirectPager(d)
	h := NewHeapFile(d.CreateFile())
	t1, _ := h.Insert(pg, Tuple{types.NewInt(1)})
	t2, _ := h.Insert(pg, Tuple{types.NewInt(2)})
	if err := h.Delete(pg, t1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.GetAt(pg, t1, RandHint); err == nil {
		t.Error("deleted tuple should not be gettable")
	}
	var vals []int64
	h.Scan(pg, func(_ TID, tup Tuple) error { vals = append(vals, tup[0].I); return nil })
	if len(vals) != 1 || vals[0] != 2 {
		t.Errorf("scan after delete = %v, want [2]", vals)
	}
	if tup, err := h.GetAt(pg, t2, RandHint); err != nil || tup[0].I != 2 {
		t.Error("surviving tuple unreadable")
	}
	if pg.PinnedCount() != 0 {
		t.Errorf("%d pages left pinned", pg.PinnedCount())
	}
}

func TestHeapRejectsGiantTuple(t *testing.T) {
	d := NewDiskManager()
	pg := NewDirectPager(d)
	h := NewHeapFile(d.CreateFile())
	big := Tuple{types.NewString(strings.Repeat("z", PageSize))}
	if _, err := h.Insert(pg, big); err == nil {
		t.Error("tuple larger than a page must be rejected")
	}
}

func TestHeapScanPropertyRandomTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDiskManager()
	pg := NewDirectPager(d)
	h := NewHeapFile(d.CreateFile())
	var want []string
	for i := 0; i < 2000; i++ {
		s := fmt.Sprintf("%d-%d", i, rng.Int63())
		want = append(want, s)
		if _, err := h.Insert(pg, Tuple{types.NewString(s)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	h.Scan(pg, func(_ TID, tup Tuple) error { got = append(got, tup[0].S); return nil })
	if len(got) != len(want) {
		t.Fatalf("scan count %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

// TestBlockCache covers the cache's contract: nil-receiver safety, Get of
// pages never cached, growth past the end, overwrite, Len, and Clear —
// with readers running against writers and Clear under the race detector.
func TestBlockCache(t *testing.T) {
	var none *BlockCache
	none.Put(3, &ColBlock{})
	none.Clear()
	if none.Get(3) != nil || none.Len() != 0 {
		t.Fatal("a nil cache holds something")
	}

	c := NewBlockCache()
	blocks := make([]*ColBlock, 300)
	for i := range blocks {
		blocks[i] = &ColBlock{Rows: i}
	}
	if c.Get(0) != nil || c.Get(1<<31) != nil {
		t.Fatal("an empty cache returned a block")
	}
	c.Put(7, blocks[7])
	c.Put(2, blocks[2])
	c.Put(7, blocks[8]) // overwrite: still two pages cached
	if c.Get(7) != blocks[8] || c.Get(2) != blocks[2] || c.Get(3) != nil || c.Get(8) != nil || c.Len() != 2 {
		t.Fatalf("after three Puts: 7->%v 2->%v len %d", c.Get(7), c.Get(2), c.Len())
	}
	c.Clear()
	if c.Get(7) != nil || c.Len() != 0 {
		t.Fatal("Clear left a block behind")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 20; round++ {
			for i, b := range blocks {
				c.Put(uint32(i), b)
			}
			c.Clear()
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for i := range blocks {
			if b := c.Get(uint32(i)); b != nil && b != blocks[i] {
				t.Fatalf("page %d returned page %d's block", i, b.Rows)
			}
		}
	}
}
