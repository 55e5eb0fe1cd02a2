// Consolidation: the paper's headline scenario. Two database servers —
// one running an I/O-bound reporting workload (TPC-H Q4-like), one a
// CPU-bound analysis workload (TPC-H Q13-like) — are consolidated onto
// one physical machine as two virtual machines. The virtualization design
// problem asks how to split the machine between them.
//
// The example calibrates the optimizer, runs the what-if search, and
// validates the recommendation against the naive equal split by actually
// executing both workloads.
//
//	go run ./examples/consolidation
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

	fmt.Println("Loading the two database servers' data...")
	reportingDB, err := env.DB("reporting")
	if err != nil {
		log.Fatal(err)
	}
	analysisDB, err := env.DB("analysis")
	if err != nil {
		log.Fatal(err)
	}

	specs := []*core.WorkloadSpec{
		{
			Name:       "reporting",
			Statements: workload.Repeat("r", workload.Query("Q4"), 3).Statements,
			DB:         reportingDB,
		},
		{
			Name:       "analysis",
			Statements: workload.Repeat("a", workload.Query("Q13"), 9).Statements,
			DB:         analysisDB,
		},
	}

	fmt.Println("Calibrating the optimizer for candidate allocations...")
	model := &core.WhatIfModel{Cal: env.Calibrator()}
	problem := &core.Problem{
		Workloads: specs,
		Resources: []vm.Resource{vm.CPU},
		Step:      0.25,
	}
	sol, err := core.SolveDP(context.Background(), problem, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRecommended design: %v\n", sol.Allocation)

	fmt.Println("\nValidating against the default equal split (actual execution):")
	equal, err := core.MeasureAllocation(env.Machine, env.Engine, specs, core.EqualAllocation(2))
	if err != nil {
		log.Fatal(err)
	}
	chosen, err := core.MeasureAllocation(env.Machine, env.Engine, specs, sol.Allocation)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-10s %10s %10s\n", "workload", "equal", "chosen")
	for i, s := range specs {
		fmt.Printf("  %-10s %9.3fs %9.3fs\n", s.Name, equal[i], chosen[i])
	}
	fmt.Printf("\nThe analysis workload improves %.0f%% while reporting degrades %.0f%% —\n",
		(1-chosen[1]/equal[1])*100, (chosen[0]/equal[0]-1)*100)
	fmt.Println("the asymmetric split beats the naive 50/50 default.")
}
