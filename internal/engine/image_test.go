package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"

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
