package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"

	"dbvirt/internal/types"
	"dbvirt/internal/vm"
)

func TestImageRoundTrip(t *testing.T) {
	src := newSession(t)
	setupPeople(t, src)
	mustExec(t, src, "CREATE INDEX people_id ON people (id)")
	mustExec(t, src, "ANALYZE people")
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.DB.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 8192 {
		t.Fatalf("image suspiciously small: %d bytes", buf.Len())
	}

	db, err := LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Deploy the appliance into a fresh VM and query it.
	m := vm.MustMachine(vm.DefaultMachineConfig())
	v, _ := m.NewVM("appliance", vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
	s, err := NewSession(db, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := query(t, s, "SELECT name FROM people WHERE id = 3")
	if len(rows) != 1 || rows[0][0].S != "carol" {
		t.Errorf("appliance query = %v", rows)
	}
	// The index survived and is searchable (the planner may still prefer
	// a seq scan on a one-page table).
	tbl, err := db.Catalog.Table("people")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Indexes) != 1 || tbl.Indexes[0].Name != "people_id" {
		t.Fatalf("restored indexes = %+v", tbl.Indexes)
	}
	tids, err := tbl.Indexes[0].Tree.Search(s.Pool, 3)
	if err != nil || len(tids) != 1 {
		t.Errorf("restored index search = %v, %v", tids, err)
	}
	if tbl.Indexes[0].Stats == nil || tbl.Indexes[0].Stats.NumEntries != 5 {
		t.Errorf("restored index stats = %+v", tbl.Indexes[0].Stats)
	}
	// Statistics survived.
	if tbl.Stats == nil || tbl.Stats.NumRows != 5 {
		t.Errorf("restored stats = %+v", tbl.Stats)
	}
	// The restored database is writable.
	mustExec(t, s, "INSERT INTO people VALUES (9, 'zed', 50, 1.0, date '2023-01-01')")
	if got := query(t, s, "SELECT count(*) FROM people"); got[0][0].I != 6 {
		t.Errorf("insert into appliance failed: %v", got[0][0])
	}
}

func TestImageDeploysToManyVMs(t *testing.T) {
	src := newSession(t)
	setupPeople(t, src)
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.DB.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	// The same image boots in several VMs (the appliance deployment
	// model); each copy is independent.
	for i := 0; i < 3; i++ {
		db, err := LoadImage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		m := vm.MustMachine(vm.DefaultMachineConfig())
		v, _ := m.NewVM("vm", vm.Shares{CPU: 1, Memory: 1, IO: 1})
		s, err := NewSession(db, v, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "DELETE FROM people WHERE id = 1")
		if got := query(t, s, "SELECT count(*) FROM people"); got[0][0].I != 4 {
			t.Errorf("copy %d: count = %v", i, got[0][0])
		}
	}
	// The original is untouched.
	if got := query(t, src, "SELECT count(*) FROM people"); got[0][0].I != 5 {
		t.Errorf("source mutated: %v", got[0][0])
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage(bytes.NewReader([]byte("not an image at all"))); err == nil {
		t.Error("garbage should be rejected")
	}
	if _, err := LoadImage(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should be rejected")
	}
	// Truncated image: valid header, cut-off body.
	src := newSession(t)
	setupPeople(t, src)
	src.Checkpoint()
	var buf bytes.Buffer
	if err := src.DB.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated image should be rejected")
	}
}

// TestLoadImageRejectsFileIDOutOfRange: an image names files 1..n, and a
// buffer pool sizes its page table by file id, so a far-off id must be
// refused on load rather than become a huge table on first pin.
func TestLoadImageRejectsFileIDOutOfRange(t *testing.T) {
	for _, fid := range []uint32{0, 2, 1 << 31} {
		var buf bytes.Buffer
		buf.WriteString(imageMagic)
		binary.Write(&buf, binary.LittleEndian, uint32(imageVersion))
		if err := gob.NewEncoder(&buf).Encode(imageMeta{}); err != nil {
			t.Fatal(err)
		}
		binary.Write(&buf, binary.LittleEndian, []uint32{1, fid, 0}) // one file of no pages
		_, err := LoadImage(&buf)
		if err == nil || !strings.Contains(err.Error(), "outside 1..1") {
			t.Errorf("file id %d: err = %v, want out of range", fid, err)
		}
	}
}

// TestLoadImageRejectsHugePageCount: a header that claims 2^32-1 pages
// with none behind it is refused after the bytes run out, without first
// allocating for the claim.
func TestLoadImageRejectsHugePageCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(imageMagic)
	binary.Write(&buf, binary.LittleEndian, uint32(imageVersion))
	if err := gob.NewEncoder(&buf).Encode(imageMeta{}); err != nil {
		t.Fatal(err)
	}
	binary.Write(&buf, binary.LittleEndian, []uint32{1, 1, 0xFFFFFFFF}) // one file, no pages behind it
	if _, err := LoadImage(&buf); err == nil || !strings.Contains(err.Error(), "reading page 0 of 4294967295") {
		t.Fatalf("err = %v, want a short read of page 0", err)
	}
}

// peopleImage is the image of a small database: one table with an index
// and statistics.
func peopleImage(tb testing.TB) []byte {
	tb.Helper()
	m := vm.MustMachine(vm.DefaultMachineConfig())
	v, err := m.NewVM("image", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSession(NewDatabase(), v, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	for _, q := range []string{
		"CREATE TABLE people (id INT, name TEXT, score FLOAT)",
		"INSERT INTO people VALUES (1, 'alice', 85.5), (2, 'bob', NULL), (3, NULL, 78.25)",
		"CREATE INDEX people_id ON people (id)",
		"ANALYZE people",
	} {
		if _, err := s.Exec(q); err != nil {
			tb.Fatalf("%s: %v", q, err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.DB.SaveImage(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadImage: LoadImage never panics, and an image it accepts, saved
// again, loads and saves to the same bytes.
func FuzzLoadImage(f *testing.F) {
	img := peopleImage(f)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(append([]byte("DBVIRTIMX"), img[len(imageMagic):]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := db.SaveImage(&once); err != nil {
			t.Fatalf("saving an accepted image: %v", err)
		}
		again, err := LoadImage(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("a saved image does not load: %v", err)
		}
		if err := again.SaveImage(&twice); err != nil {
			t.Fatalf("saving a reloaded image: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("save, load, save is not stable: %d bytes, then %d", once.Len(), twice.Len())
		}
	})
}

// TestLoadImageRejectsBadSchema: a column of an unknown kind and an index
// on a column the table does not have are refused on load rather than
// left for the first query to trip over.
func TestLoadImageRejectsBadSchema(t *testing.T) {
	for want, meta := range map[string]imageMeta{
		"unknown kind": {Tables: []imageTable{{Name: "t", Cols: []imageColumn{{Name: "a", Kind: types.KindDate + 1}}}}},
		"index ix on column 1": {Tables: []imageTable{{Name: "t", Cols: []imageColumn{{Name: "a", Kind: types.KindInt}},
			Indexes: []imageIndex{{Name: "ix", Col: 1}}}}},
	} {
		var buf bytes.Buffer
		buf.WriteString(imageMagic)
		binary.Write(&buf, binary.LittleEndian, uint32(imageVersion))
		if err := gob.NewEncoder(&buf).Encode(meta); err != nil {
			t.Fatal(err)
		}
		binary.Write(&buf, binary.LittleEndian, uint32(0)) // no files
		if _, err := LoadImage(&buf); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}
