package dbvirt_test

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// layers lists, for every package under internal/ and every command
// under cmd/, the internal packages its non-test files import. TestLayering
// fails when the imports differ from the table, so a new dependency
// between packages is a reviewed edit of this table. No internal package
// imports experiments, so the command rows pin what each binary links:
// only cmd/experiments reaches the paper harness.
var layers = map[string]string{
	"cmd/calibrate":   "calibration faults obs vm",
	"cmd/dbvshell":    "engine obs sql telemetry vm workload",
	"cmd/experiments": "experiments obs workload",
	"cmd/vdtune":      "core obs telemetry vm workload",
	"cmd/vdtuned":     "calibration faults obs server telemetry workload",

	"autotune":    "core engine obs telemetry vm",
	"buffer":      "storage vm",
	"calibration": "engine faults linalg memo obs optimizer storage types vm wal",
	"catalog":     "index storage types",
	"core":        "calibration engine memo obs optimizer plan sql vm",
	"engine":      "buffer catalog executor index memo obs optimizer plan sql storage types vm wal",
	"executor":    "buffer index obs optimizer plan sql storage types vm",
	"experiments": "autotune calibration core engine optimizer placement telemetry vm wal workload",
	"faults":      "",
	"index":       "storage",
	"linalg":      "",
	"memo":        "obs",
	"obs":         "",
	"optimizer":   "catalog obs plan sql storage types",
	"placement":   "core memo obs telemetry vm",
	"plan":        "catalog sql types",
	"server":      "autotune calibration core memo obs optimizer placement telemetry vm workload",
	"sql":         "types",
	"storage":     "types",
	"telemetry":   "obs",
	"types":       "",
	"vm":          "",
	"wal":         "faults obs storage",
	"workload":    "calibration engine storage types vm",
}

// TestLayering checks the import graph of the internal packages and the
// commands against layers.
func TestLayering(t *testing.T) {
	const prefix = "dbvirt/internal/"
	var dirs []string
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range entries {
			if d.IsDir() {
				dirs = append(dirs, filepath.Join(root, d.Name()))
			}
		}
	}
	seen := map[string]bool{}
	for _, dir := range dirs {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimPrefix(dir, "internal/")
		seen[name] = true
		allowed, ok := layers[name]
		if !ok {
			t.Errorf("%s is not in the layering table", dir)
			continue
		}
		var got []string
		for _, imp := range pkg.Imports { // sorted
			if strings.HasPrefix(imp, prefix) {
				got = append(got, strings.TrimPrefix(imp, prefix))
			}
		}
		if strings.Join(got, " ") != allowed {
			t.Errorf("%s imports %v; the layering table lists %q", dir, got, allowed)
		}
	}
	for name := range layers {
		if !seen[name] {
			t.Errorf("the layering table lists %s, which does not exist", name)
		}
	}
}
