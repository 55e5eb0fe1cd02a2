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

// goldenControl is the closed-loop payoff figure at quick scale. FigCRow
// carries no wall-clock fields and the loop runs under an injected
// clock, so the snapshot pins the controller's whole visible behavior:
// tick-by-tick triggers, suppression reasons, drift scores, the single
// actuation, and the predicted-cost drop it buys.
func goldenControl(t *testing.T) []byte {
	t.Helper()
	env := workload.QuickEnv()
	rows, err := experiments.FigureControl(env, 6, 10)
	if err != nil {
		t.Fatalf("FigureControl: %v", err)
	}
	b, err := json.MarshalIndent(map[string]any{"figure_control": rows}, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(b, '\n')
}

func TestControlFigureGolden(t *testing.T) {
	if os.Getenv(faults.EnvVar) != "" {
		// Injected faults perturb measured plan costs by design; the
		// snapshot pins the fault-free configuration.
		t.Skipf("%s is set; the golden control figure is defined for fault-free runs", faults.EnvVar)
	}
	got := goldenControl(t)

	path := filepath.Join("testdata", "golden_autotune.json")
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
		t.Fatalf("reading golden file (run `go test ./cmd/experiments -run TestControlFigureGolden -update` to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("control figure diverges from %s\nIf the change is intentional, regenerate with -update and commit the diff.\ngot %d bytes, want %d bytes", path, len(got), len(want))
	}

	// A second run — fresh loop, warm process — must be byte-identical:
	// global metric state and memo warmth may never leak into the series.
	again := goldenControl(t)
	if !bytes.Equal(got, again) {
		t.Fatalf("control figure is not reproducible within a process: first run %d bytes, second %d bytes", len(got), len(again))
	}
}
