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

// paperRecord is the committed quick-scale paper record that
// internal/experiments pins with TestPaperGolden.
var paperRecord = filepath.Join("..", "..", "internal", "experiments", "testdata", "paper.json")

// checkGolden runs `experiments -quick -fig NAME` for each name and
// checks two things: the rows of that entry, run on a fresh QuickEnv,
// equal its member of the committed paper record value for value; and
// the command prints exactly the text rendering of those rows. The
// command and the direct run each start from a fresh environment, so
// the second check is also a reproducibility check within a process.
func checkGolden(t *testing.T, names ...string) {
	t.Helper()
	if os.Getenv(faults.EnvVar) != "" {
		// Injected measurement faults perturb calibrated values by design;
		// the record pins the fault-free configuration.
		t.Skipf("%s is set; the paper record is defined for fault-free runs", faults.EnvVar)
	}
	b, err := os.ReadFile(paperRecord)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatalf("%s: %v", paperRecord, err)
	}
	byName := map[string]experiments.Experiment{}
	for _, x := range experiments.Paper {
		byName[x.Name] = x
	}
	for _, name := range names {
		x, ok := byName[name]
		if !ok {
			t.Fatalf("%s is not an entry of experiments.Paper", name)
		}
		rows, err := x.Run(workload.QuickEnv())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := json.Marshal(rows)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, golden[name]); err != nil {
			t.Fatalf("%s: member of %s: %v", name, paperRecord, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s diverges from its member of %s\nIf the change is intentional, regenerate with `go test ./internal/experiments -run TestPaperGolden -update` and commit the diff.\ngot  %d bytes, want %d bytes", name, paperRecord, len(got), want.Len())
		}

		var stdout, stderr bytes.Buffer
		if code := run([]string{"-quick", "-fig", name}, &stdout, &stderr); code != 0 {
			t.Fatalf("experiments -quick -fig %s: exit status %d: %s", name, code, stderr.String())
		}
		if text := x.Text(rows); stdout.String() != text {
			t.Errorf("experiments -quick -fig %s printed\n%s\nwant the rendering of the recorded rows\n%s", name, stdout.String(), text)
		}
	}
}

// TestFiguresGolden pins Figures 3 and 4 at quick scale.
func TestFiguresGolden(t *testing.T) { checkGolden(t, "figure3", "figure4") }

// TestPlacementFigureGolden pins the placement figure at quick scale.
func TestPlacementFigureGolden(t *testing.T) { checkGolden(t, "figure_placement") }

// TestControlFigureGolden pins the control-loop figure at quick scale.
func TestControlFigureGolden(t *testing.T) { checkGolden(t, "figure_control") }
