// Package experiments reproduces the paper's evaluation: Figure 3
// (calibrated cpu_tuple_cost across CPU and memory allocations), Figure 4
// (estimated vs actual sensitivity of TPC-H Q4 and Q13 to the CPU share),
// and Figure 5 (total execution time of a 3×Q4 workload and a 9×Q13
// workload under the default 50/50 CPU split versus the 25/75 split the
// what-if model selects), plus the ablation studies listed in DESIGN.md.
//
// The harness returns structured rows. Paper lists every experiment with
// the arguments it runs at and its text rendering; cmd/experiments prints
// it, and testdata/paper.json pins it at quick scale.
package experiments

import (
	"context"
	"fmt"

	"dbvirt/internal/core"
	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
	"dbvirt/internal/wal"
	"dbvirt/internal/workload"
)

// Deprecated: use workload.Env. Env, NewEnv and QuickEnv forward to
// workload until bench/ moves there (ROADMAP 1(f), the next harness change).
type Env = workload.Env

// Deprecated: use workload.NewEnv (see Env).
func NewEnv(scale workload.Scale, machine vm.MachineConfig) *Env {
	return workload.NewEnv(scale, machine)
}

// Deprecated: use workload.QuickEnv (see Env).
func QuickEnv() *Env { return workload.QuickEnv() }

// measureWrite executes a write workload against a fresh WAL-logged
// database in a VM at the given shares and returns the simulated elapsed
// seconds plus the workload's log footprint (bytes appended, group
// fsyncs) — the inputs of the write-path what-if estimate. The base table
// is built by a full-share loader VM on a machine of its own; only the
// write statements themselves are measured, through core.Deploy. Each
// statement is an autocommit transaction, so flushes == len(w.Statements).
func measureWrite(e *workload.Env, w workload.Workload, baseRows int, shares vm.Shares) (elapsed float64, logBytes int64, flushes int, err error) {
	lm, err := vm.NewMachine(e.Machine)
	if err != nil {
		return 0, 0, 0, err
	}
	loader, err := lm.NewVM("write-loader", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		return 0, 0, 0, err
	}
	db := engine.NewDatabase()
	if err := db.EnableLogging(wal.NewMemDevice(), 1); err != nil {
		return 0, 0, 0, err
	}
	ls, err := engine.NewSession(db, loader, e.Engine)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := workload.BuildWriteBase(ls, baseRows, e.Seed); err != nil {
		return 0, 0, 0, fmt.Errorf("experiments: building write base: %w", err)
	}
	spec := &core.WorkloadSpec{Name: w.Name, Statements: w.Statements, DB: db}
	dep, err := core.Deploy(e.Machine, e.Engine, []*core.WorkloadSpec{spec}, core.Allocation{shares})
	if err != nil {
		return 0, 0, 0, err
	}
	_, before := db.LogStats()
	measured, err := dep.MeasureWorkloads(false)
	if err != nil {
		return 0, 0, 0, err
	}
	_, after := db.LogStats()
	return measured[0], after - before, len(w.Statements), nil
}

// EstimateQuery plans one query under the calibrated P(shares) and
// returns the estimated seconds: the what-if model's cost of a
// one-statement workload.
func EstimateQuery(e *workload.Env, db *engine.Database, query string, shares vm.Shares) (float64, error) {
	w := &core.WorkloadSpec{Name: "estimate", Statements: []string{query}, DB: db}
	return (&core.WhatIfModel{Cal: e.Calibrator()}).Cost(context.Background(), w, shares)
}

// MatrixWorkloads builds the paper's two workloads: W1 = n4 copies of Q4
// and W2 = n13 copies of Q13.
func MatrixWorkloads(e *workload.Env, n4, n13 int) ([]*core.WorkloadSpec, error) {
	q4db, err := e.DB("w-q4")
	if err != nil {
		return nil, err
	}
	q13db, err := e.DB("w-q13")
	if err != nil {
		return nil, err
	}
	return []*core.WorkloadSpec{
		{
			Name:       "W1-Q4",
			Statements: workload.Repeat("w1", workload.Query("Q4"), n4).Statements,
			DB:         q4db,
		},
		{
			Name:       "W2-Q13",
			Statements: workload.Repeat("w2", workload.Query("Q13"), n13).Statements,
			DB:         q13db,
		},
	}, nil
}
