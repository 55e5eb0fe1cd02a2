package dbvirt_test

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// layers lists, for every package under internal/, the internal packages
// its non-test files import. TestLayering fails when the imports differ
// from the table, so a new dependency between packages is a reviewed edit
// of this table.
var layers = map[string]string{
	"autotune":    "core engine memo obs telemetry vm",
	"buffer":      "storage vm",
	"calibration": "engine faults linalg memo obs optimizer storage types vm wal",
	"catalog":     "index storage types",
	"core":        "calibration engine memo obs optimizer plan sql vm",
	"engine":      "buffer catalog executor index memo obs optimizer plan sql storage types vm wal",
	"executor":    "buffer index obs optimizer plan sql storage types vm",
	"experiments": "autotune calibration core engine obs optimizer placement telemetry vm wal workload",
	"faults":      "",
	"index":       "storage",
	"linalg":      "",
	"memo":        "obs",
	"obs":         "",
	"optimizer":   "catalog obs plan sql storage types",
	"placement":   "core memo obs telemetry vm",
	"plan":        "catalog sql types",
	"server":      "autotune calibration core experiments memo obs optimizer placement telemetry vm workload",
	"sql":         "types",
	"storage":     "types",
	"telemetry":   "obs",
	"types":       "",
	"vm":          "",
	"wal":         "faults obs storage",
	"workload":    "engine storage types",
}

// TestLayering checks the import graph of the internal packages against
// layers.
func TestLayering(t *testing.T) {
	const prefix = "dbvirt/internal/"
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg, err := build.ImportDir(filepath.Join("internal", d.Name()), 0)
		if err != nil {
			t.Fatal(err)
		}
		seen[d.Name()] = true
		allowed, ok := layers[d.Name()]
		if !ok {
			t.Errorf("internal/%s is not in the layering table", d.Name())
			continue
		}
		var got []string
		for _, imp := range pkg.Imports { // sorted
			if strings.HasPrefix(imp, prefix) {
				got = append(got, strings.TrimPrefix(imp, prefix))
			}
		}
		if strings.Join(got, " ") != allowed {
			t.Errorf("internal/%s imports %v; the layering table lists %q", d.Name(), got, allowed)
		}
	}
	for name := range layers {
		if !seen[name] {
			t.Errorf("the layering table lists internal/%s, which does not exist", name)
		}
	}
}
