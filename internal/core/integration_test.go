package core

import (
	"context"
	"testing"

	"dbvirt/internal/calibration"
	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// integrationEnv builds two small workload databases (an I/O-bound Q4
// workload and a CPU-bound Q13 workload) on a scaled-down machine.
func integrationEnv(t *testing.T) (vm.MachineConfig, []*WorkloadSpec) {
	t.Helper()
	cfg := vm.DefaultMachineConfig()
	cfg.MemBytes = 16 << 20

	buildDB := func(name string) *engine.Database {
		m := vm.MustMachine(cfg)
		loader, err := m.NewVM(name+"-loader", vm.Shares{CPU: 1, Memory: 1, IO: 1})
		if err != nil {
			t.Fatal(err)
		}
		db := engine.NewDatabase()
		s, err := engine.NewSession(db, loader, engine.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Build(s, workload.SmallScale(), 7); err != nil {
			t.Fatal(err)
		}
		return db
	}

	specs := []*WorkloadSpec{
		{
			Name:       "io-q4",
			Statements: workload.Repeat("q4", workload.Query("Q4"), 1).Statements,
			DB:         buildDB("q4"),
		},
		{
			Name:       "cpu-q13",
			Statements: workload.Repeat("q13", workload.Query("Q13"), 3).Statements,
			DB:         buildDB("q13"),
		},
	}
	return cfg, specs
}

func TestWhatIfModelEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	machineCfg, specs := integrationEnv(t)

	calCfg := calibration.DefaultConfig()
	calCfg.Machine = machineCfg
	calCfg.NarrowRows = 4000
	calCfg.BigRows = 36000
	model := &WhatIfModel{Cal: calibration.New(calCfg)}

	p := &Problem{
		Workloads: specs,
		Resources: []vm.Resource{vm.CPU},
		Step:      0.25,
	}
	res, err := SolveDP(context.Background(), p, model)
	if err != nil {
		t.Fatal(err)
	}
	// The what-if search must shift CPU from the I/O-bound Q4 workload to
	// the CPU-bound Q13 workload — the paper's headline decision.
	if res.Allocation[1].CPU <= res.Allocation[0].CPU {
		t.Errorf("Q13 should receive more CPU than Q4: %v", res.Allocation)
	}

	// Validate with actual (simulated) execution: the chosen allocation
	// must not be worse than equal shares in measured total time.
	engCfg := engine.DefaultConfig()
	chosen, err := MeasureAllocation(machineCfg, engCfg, specs, res.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	equal, err := MeasureAllocation(machineCfg, engCfg, specs, EqualAllocation(2))
	if err != nil {
		t.Fatal(err)
	}
	sum := func(v []float64) float64 { return v[0] + v[1] }
	if sum(chosen) > sum(equal)*1.05 {
		t.Errorf("chosen allocation measured %.3fs, equal %.3fs — what-if decision hurt",
			sum(chosen), sum(equal))
	}
	// And the Q13 workload specifically must improve.
	if chosen[1] >= equal[1] {
		t.Errorf("Q13 workload should improve: chosen %.3fs vs equal %.3fs", chosen[1], equal[1])
	}
}

// MeasuredModel is the oracle cost model: it runs the workload alone in
// a freshly provisioned VM at the candidate allocation, after one warm-up
// run, and reports the simulated elapsed time, validating the what-if
// model against the engine it models.
type MeasuredModel struct {
	Machine vm.MachineConfig
	Engine  engine.Config
}

// Name implements CostModel.
func (m *MeasuredModel) Name() string { return "measured" }

// Cost implements CostModel.
func (m *MeasuredModel) Cost(ctx context.Context, w *WorkloadSpec, shares vm.Shares) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	secs, err := MeasureAllocation(m.Machine, m.Engine, []*WorkloadSpec{w}, Allocation{shares})
	if err != nil {
		return 0, err
	}
	return secs[0], nil
}

func TestMeasuredModel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	machineCfg, specs := integrationEnv(t)
	engCfg := engine.DefaultConfig()

	measured := &MeasuredModel{Machine: machineCfg, Engine: engCfg}
	q13 := specs[1]
	cLow, err := measured.Cost(context.Background(), q13, vm.Shares{CPU: 0.25, Memory: 0.5, IO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cHigh, err := measured.Cost(context.Background(), q13, vm.Shares{CPU: 0.75, Memory: 0.5, IO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if cLow <= cHigh {
		t.Errorf("CPU-bound workload should slow down at low CPU: %.3f vs %.3f", cLow, cHigh)
	}
}

func TestWhatIfModelRejectsNonSelect(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	machineCfg, specs := integrationEnv(t)
	calCfg := calibration.DefaultConfig()
	calCfg.Machine = machineCfg
	calCfg.NarrowRows = 2000
	calCfg.BigRows = 36000
	model := &WhatIfModel{Cal: calibration.New(calCfg)}
	bad := &WorkloadSpec{
		Name:       "ddl",
		Statements: []string{"INSERT INTO t VALUES (1)"},
		DB:         specs[0].DB,
	}
	if _, err := model.Cost(context.Background(), bad, vm.Equal(2)); err == nil {
		t.Error("non-SELECT workload should be rejected by the what-if model")
	}
}

func TestWhatIfModelRequiresSource(t *testing.T) {
	m := &WhatIfModel{}
	if _, err := m.Cost(context.Background(), &WorkloadSpec{Name: "x"}, vm.Equal(2)); err == nil {
		t.Error("model without grid or calibrator should fail")
	}
}

func TestDeployOverCommitRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	machineCfg, specs := integrationEnv(t)
	over := Allocation{
		vm.Shares{CPU: 0.75, Memory: 0.5, IO: 0.5},
		vm.Shares{CPU: 0.75, Memory: 0.5, IO: 0.5},
	}
	if _, err := Deploy(machineCfg, engine.DefaultConfig(), specs, over); err == nil {
		t.Error("over-committed allocation must be rejected")
	}
	if _, err := Deploy(machineCfg, engine.DefaultConfig(), specs, EqualAllocation(1)); err == nil {
		t.Error("length mismatch must be rejected")
	}
}
