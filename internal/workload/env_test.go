package workload_test

import (
	"crypto/sha256"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// TestEnvDBSharesByContent pins the sharing rule of Env.DB: the database
// is keyed on what decides its contents, Scale and Seed, and the caller's
// name is only a label. Sharing is sound only because nothing the harness
// runs writes to that database, so the figures, the ablations, the fleet
// and the control loop must leave its pages and statistics as built.
func TestEnvDBSharesByContent(t *testing.T) {
	tiny := workload.NewEnv(workload.TinyScale(), vm.DefaultMachineConfig())
	db := func(e *workload.Env, name string) *engine.Database {
		t.Helper()
		d, err := e.DB(name)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	shared := db(tiny, "w-q4")
	if db(tiny, "srv-Q13") != shared || db(tiny, "fleet-Q6") != shared {
		t.Fatal("two names under one Scale and Seed returned different databases")
	}
	tiny.Seed++
	if db(tiny, "w-q4") == shared {
		t.Error("a changed Seed returned the same database")
	}
	tiny.Seed--
	tiny.Scale.Orders++
	if db(tiny, "w-q4") == shared {
		t.Error("a changed Scale returned the same database")
	}
	tiny.Scale.Orders--
	if db(tiny, "w-q4") != shared {
		t.Error("restoring Scale and Seed did not return the first database")
	}

	// The paper record's tests (internal/experiments) check that by the
	// image digest after every experiment. The digest sees a write that
	// reaches the disk: one inserted row.
	before := imageDigest(t, shared)
	m, err := vm.NewMachine(tiny.Machine)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.NewVM("writer", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(shared, v, tiny.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO customer VALUES (0, 'w', 'BUILDING', 1, 1.5)"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if imageDigest(t, shared) == before {
		t.Error("the digest missed an inserted row")
	}
}

// imageDigest hashes the database's appliance image: its pages, schemas,
// TableStats and IndexStats.
func imageDigest(t *testing.T, db *engine.Database) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := db.SaveImage(h); err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
