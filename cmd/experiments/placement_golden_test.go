package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dbvirt/internal/experiments"
	"dbvirt/internal/faults"
	"dbvirt/internal/workload"
)

// goldenPlacement is the fleet-placement figure at quick scale. FigPRow
// excludes wall-clock fields from JSON, so the snapshot pins exactly the
// deterministic outputs: class counts, machine counts, solve/memo splits,
// and the verified fleet cost at each size.
func goldenPlacement(t *testing.T) []byte {
	t.Helper()
	env := workload.QuickEnv()
	rows, err := experiments.FigurePlacement(env, []int{60, 200})
	if err != nil {
		t.Fatalf("FigurePlacement: %v", err)
	}
	b, err := json.MarshalIndent(map[string]any{"figure_placement": rows}, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(b, '\n')
}

func TestPlacementFigureGolden(t *testing.T) {
	if os.Getenv(faults.EnvVar) != "" {
		// Injected faults perturb measured plan costs by design; the
		// snapshot pins the fault-free configuration.
		t.Skipf("%s is set; the golden placement figure is defined for fault-free runs", faults.EnvVar)
	}
	got := goldenPlacement(t)

	path := filepath.Join("testdata", "golden_placement.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./cmd/experiments -run TestPlacementFigureGolden -update` to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("placement figure diverges from %s\nIf the change is intentional, regenerate with -update and commit the diff.\ngot %d bytes, want %d bytes", path, len(got), len(want))
	}

	// A second run — fresh environment, warm process — must be
	// byte-identical: global metric state, memo warmth, and goroutine
	// scheduling may never reach the published numbers.
	again := goldenPlacement(t)
	if !bytes.Equal(got, again) {
		t.Fatalf("placement figure is not reproducible within a process: first run %d bytes, second %d bytes", len(got), len(again))
	}
}
