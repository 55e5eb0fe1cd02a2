package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/faults"
	"dbvirt/internal/workload"
)

var updatePaper = flag.Bool("update", false, "rewrite testdata/paper.json")

// The quick-scale paper record, run once per test process: the golden
// test pins it and the shape tests read their rows from it.
var (
	recordOnce sync.Once
	recordRows map[string]any
	recordJSON []byte
	recordErr  error
)

func record(t *testing.T) (map[string]any, []byte) {
	t.Helper()
	recordOnce.Do(func() { recordRows, recordJSON, recordErr = runPaper() })
	if recordErr != nil {
		t.Fatal(recordErr)
	}
	return recordRows, recordJSON
}

// runPaper runs every entry of Paper on a fresh QuickEnv and marshals the
// rows to indented JSON. After each entry it checks the sharing rule of
// Env.DB: nothing the harness runs may write to the TPC-H database that
// every entry shares, so its pages and statistics stay as built and
// Env.DB keeps returning it.
func runPaper() (map[string]any, []byte, error) {
	env := workload.QuickEnv()
	shared, err := env.DB("w-q4")
	if err != nil {
		return nil, nil, err
	}
	before, err := imageDigest(shared)
	if err != nil {
		return nil, nil, err
	}
	rows := map[string]any{}
	for _, x := range Paper {
		r, err := x.Run(env)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", x.Name, err)
		}
		rows[x.Name] = r
		if after, err := imageDigest(shared); err != nil || after != before {
			return nil, nil, fmt.Errorf("%s changed the shared database's pages or statistics (%v)", x.Name, err)
		}
		if db, err := env.DB("srv-" + x.Name); err != nil || db != shared {
			return nil, nil, fmt.Errorf("after %s, Env.DB no longer returns the shared database (%v)", x.Name, err)
		}
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return rows, append(b, '\n'), nil
}

// imageDigest hashes the database's appliance image: its pages, schemas,
// TableStats and IndexStats.
func imageDigest(db *engine.Database) ([sha256.Size]byte, error) {
	h := sha256.New()
	err := db.SaveImage(h)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, err
}

// TestPaperGolden is the e2e regression snapshot: every experiment of the
// paper record at quick scale. Every layer the experiments cross —
// workload build, calibration, plan costing, the what-if model, the
// solvers, placement and the control loop — must stay bit-for-bit
// deterministic for this to pass, so a change that shifts a published
// number shows up as a golden diff, reviewed rather than silently
// shipped.
func TestPaperGolden(t *testing.T) {
	if os.Getenv(faults.EnvVar) != "" {
		// Injected measurement faults perturb calibrated values by design;
		// the snapshot pins the fault-free configuration.
		t.Skipf("%s is set; the paper record is defined for fault-free runs", faults.EnvVar)
	}
	_, got := record(t)

	path := filepath.Join("testdata", "paper.json")
	if *updatePaper {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/experiments -run TestPaperGolden -update` to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		i := 0
		for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
			i++
		}
		t.Fatalf("the paper record diverges from %s at line %d\nIf the change is intentional, regenerate with -update and commit the diff.\ngot  %q\nwant %q",
			path, i+1, line(gl, i), line(wl, i))
	}

	// A second complete run from a fresh environment must be
	// byte-identical: nothing in the first run (global metrics, pooled
	// state, memo warmth, scheduling) may leak into the numbers of the
	// second.
	_, again, err := runPaper()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Fatalf("the paper record is not reproducible within a process: first run %d bytes, second %d bytes", len(got), len(again))
	}
}

func line(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}
