package workload_test

import (
	"crypto/sha256"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/experiments"
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

	if testing.Short() {
		t.Skip("runs every figure and ablation")
	}
	env := workload.QuickEnv()
	shared = db(env, "w-q4")
	before := imageDigest(t, shared)
	runs := []struct {
		name string
		run  func() error
	}{
		{"Figure3", func() error {
			_, err := experiments.Figure3(env, []float64{0.25, 0.75}, []float64{0.5}, 0.5)
			return err
		}},
		{"Figure4", func() error { _, err := experiments.Figure4(env, []float64{0.25, 0.5, 0.75}); return err }},
		{"Figure5", func() error { _, err := experiments.Figure5(env); return err }},
		{"AblationSearch", func() error { _, err := experiments.AblationSearch(env, 3, 0.25); return err }},
		{"AblationCalibrationGrid", func() error { _, err := experiments.AblationCalibrationGrid(env); return err }},
		{"AblationOverlap", func() error { _, err := experiments.AblationOverlap(env, []float64{0, 1}); return err }},
		{"DynamicReconfig", func() error { _, err := experiments.DynamicReconfig(env); return err }},
		{"SLOWeighted", func() error { _, err := experiments.SLOWeighted(env); return err }},
		{"MemoryDimension", func() error { _, err := experiments.MemoryDimension(env); return err }},
		{"FleetTenants", func() error { _, err := experiments.FleetTenants(env, 64, 1); return err }},
		{"FigureControl", func() error { _, err := experiments.FigureControl(env, 6, 10); return err }},
	}
	for _, r := range runs {
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := imageDigest(t, shared); got != before {
			t.Fatalf("%s changed the shared database's pages or statistics", r.name)
		}
		if db(env, "srv-"+r.name) != shared {
			t.Fatalf("after %s, Env.DB no longer returns the shared database", r.name)
		}
	}

	// The digest sees a write that reaches the disk: one inserted row.
	m, err := vm.NewMachine(env.Machine)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.NewVM("writer", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(shared, v, env.Engine)
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
