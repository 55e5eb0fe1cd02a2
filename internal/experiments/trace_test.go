package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/obs"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// TestTracesReachEveryLayer installs the process sinks the way a CLI
// does, then checks that calibration and the solver, which carry no
// telemetry in their configs, land their spans in the -trace-out file,
// and that Close uninstalls the sinks and runs once.
func TestTracesReachEveryLayer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	flags := obs.Flags{TraceOut: path}
	if _, err := flags.Setup("test"); err != nil {
		t.Fatal(err)
	}
	defer obs.Close()

	env := workload.QuickEnv()
	half := []float64{0.5}
	if _, err := env.Calibrator().CalibrateGridOpts(context.Background(),
		[]float64{0.25, 0.75}, half, half, calibration.GridOptions{}); err != nil {
		t.Fatal(err)
	}
	specs, err := MatrixWorkloads(env, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	problem := &core.Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU}, Step: 0.25}
	if _, err := core.SolveDP(context.Background(), problem, &core.WhatIfModel{Cal: env.Calibrator()}); err != nil {
		t.Fatal(err)
	}
	if err := obs.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	names := map[string]int{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name]++
	}
	for _, want := range []string{"calibrate.grid", "calibrate.point", "core.solve.dp"} {
		if names[want] == 0 {
			t.Errorf("trace has no %s span; spans: %v", want, names)
		}
	}

	if sp := obs.StartSpan("after"); sp != nil {
		t.Error("StartSpan returned a span after Close")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := obs.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("a second Close wrote the trace file again")
	}
}
