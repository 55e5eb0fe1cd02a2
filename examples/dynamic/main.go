// Dynamic reallocation: the paper's Section 7 extension. Two workloads
// run in VMs on one machine; mid-run their resource demands swap (the
// CPU-bound one becomes I/O-bound and vice versa). A controller watches
// for the change, re-solves the virtualization design problem with the
// what-if cost model, and reconfigures the running VMs' shares on the
// fly — without restarting anything.
//
//	go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"log"

	"dbvirt/internal/core"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

func main() {
	env := workload.QuickEnv()

	fmt.Println("Loading workload databases...")
	db1, err := env.DB("dyn-w1")
	if err != nil {
		log.Fatal(err)
	}
	db2, err := env.DB("dyn-w2")
	if err != nil {
		log.Fatal(err)
	}

	phase1 := []*core.WorkloadSpec{
		{Name: "W1", Statements: workload.Repeat("w1", workload.Query("Q4"), 1).Statements, DB: db1},
		{Name: "W2", Statements: workload.Repeat("w2", workload.Query("Q13"), 6).Statements, DB: db2},
	}
	phase2 := []*core.WorkloadSpec{
		{Name: "W1", Statements: workload.Repeat("w1", workload.Query("Q13"), 6).Statements, DB: db1},
		{Name: "W2", Statements: workload.Repeat("w2", workload.Query("Q4"), 1).Statements, DB: db2},
	}

	model := &core.WhatIfModel{Cal: env.Calibrator()}
	problem := func(specs []*core.WorkloadSpec) *core.Problem {
		return &core.Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU}, Step: 0.25}
	}

	// Initial design for phase 1.
	sol, err := core.SolveDP(context.Background(), problem(phase1), model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPhase-1 design: %v\n", sol.Allocation)

	dep, err := core.Deploy(env.Machine, env.Engine, phase1, sol.Allocation)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := dep.MeasureWorkloads(false); err != nil { // warm caches
		log.Fatal(err)
	}

	runPhase := func(specs []*core.WorkloadSpec, label string) float64 {
		var total float64
		for i, spec := range specs {
			start := dep.VMs[i].Snapshot()
			if _, err := dep.Sessions[i].RunWorkload(spec.Statements); err != nil {
				log.Fatal(err)
			}
			el := dep.VMs[i].ElapsedSince(start)
			fmt.Printf("  %s %s: %.3fs (shares %v)\n", label, spec.Name, el, dep.VMs[i].Shares())
			total += el
		}
		return total
	}

	fmt.Println("\nPhase 1 (W1 I/O-bound, W2 CPU-bound):")
	p1 := runPhase(phase1, "phase1")

	// The workload mix changes; re-solve and reconfigure the running VMs.
	fmt.Println("\n>>> workload phase change detected; reconfiguring...")
	newSol, err := core.SolveDP(context.Background(), problem(phase2), model)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.ApplyShares(dep.VMs, newSol.Allocation); err != nil {
		log.Fatal(err)
	}
	fmt.Printf(">>> new design: %v\n", newSol.Allocation)

	fmt.Println("\nPhase 2 (profiles swapped, shares reconfigured live):")
	p2 := runPhase(phase2, "phase2")

	fmt.Printf("\nTotal: %.3fs; without reconfiguration phase 2 would have run W1's\n", p1+p2)
	fmt.Println("CPU-hungry queries on the small CPU share chosen for phase 1.")
}
