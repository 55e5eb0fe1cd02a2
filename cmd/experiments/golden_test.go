package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dbvirt/internal/experiments"
	"dbvirt/internal/faults"
	"dbvirt/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure snapshot")

// goldenFigures is the e2e regression snapshot: the Figure 3 and Figure 4
// outputs at quick scale, marshaled to indented JSON. Every layer the
// figures cross — workload build, calibration, plan costing, the what-if
// model — must stay bit-for-bit deterministic for this to pass, so a
// change in any of them that shifts published numbers shows up as a
// golden diff, reviewed rather than silently shipped.
func goldenFigures(t *testing.T) []byte {
	t.Helper()
	env := workload.QuickEnv()
	fig3, err := experiments.Figure3(env, []float64{0.25, 0.5, 0.75}, []float64{0.25, 0.5, 0.75}, 0.5)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	fig4, err := experiments.Figure4(env, []float64{0.25, 0.5, 0.75})
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	b, err := json.MarshalIndent(map[string]any{
		"figure3": fig3,
		"figure4": fig4,
	}, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(b, '\n')
}

func TestFiguresGolden(t *testing.T) {
	if os.Getenv(faults.EnvVar) != "" {
		// Injected measurement faults perturb calibrated values by design;
		// the snapshot pins the fault-free configuration.
		t.Skipf("%s is set; golden figures are defined for fault-free runs", faults.EnvVar)
	}
	got := goldenFigures(t)

	path := filepath.Join("testdata", "golden_figures.json")
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
		t.Fatalf("reading golden file (run `go test ./cmd/experiments -run TestFiguresGolden -update` to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("figure outputs diverge from %s\nIf the change is intentional, regenerate with -update and commit the diff.\ngot %d bytes, want %d bytes", path, len(got), len(want))
	}

	// A second complete run from a fresh environment must be
	// byte-identical: nothing in the first run (global metrics, pooled
	// state, scheduling) may leak into the numbers of the second.
	again := goldenFigures(t)
	if !bytes.Equal(got, again) {
		t.Fatalf("figure outputs are not reproducible within a process: first run %d bytes, second %d bytes", len(got), len(again))
	}
}
