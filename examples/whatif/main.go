// What-if exploration: calibrate the optimizer for several resource
// allocations and compare its estimated execution times against actual
// (simulated) runs, query by query — the mechanism behind the paper's
// Figure 4. A useful way to see which workloads are CPU-, I/O-, or
// cache-sensitive before committing to a design.
//
//	go run ./examples/whatif
package main

import (
	"context"
	"fmt"
	"log"

	"dbvirt/internal/core"
	"dbvirt/internal/experiments"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

func main() {
	env := workload.QuickEnv()

	fmt.Println("Loading the TPC-H-like database...")
	db, err := env.DB("whatif")
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{"Q1", "Q4", "Q6", "Q13", "QPOINT"}
	shares := []vm.Shares{
		{CPU: 0.25, Memory: 0.5, IO: 0.5},
		{CPU: 0.75, Memory: 0.5, IO: 0.5},
		{CPU: 0.5, Memory: 0.5, IO: 0.25},
		{CPU: 0.5, Memory: 0.5, IO: 0.75},
	}

	fmt.Println("Calibrating P(R) for each allocation...")
	for _, sh := range shares {
		p, err := env.Calibrator().Calibrate(context.Background(), sh)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %v: cpu_tuple=%.4f rand_page=%.1f t_seq=%.2fms\n",
			sh, p.CPUTupleCost, p.RandomPageCost, p.TimePerSeqPage*1000)
	}

	fmt.Printf("\n%-8s %-26s %12s %12s\n", "query", "allocation", "estimated", "actual")
	for _, name := range queries {
		q := workload.Query(name)
		spec := []*core.WorkloadSpec{{Name: name, Statements: []string{q}, DB: db}}
		for _, sh := range shares {
			est, err := experiments.EstimateQuery(env, db, q, sh)
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			act, err := core.MeasureAllocation(env.Machine, env.Engine, spec, core.Allocation{sh})
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Printf("%-8s %-26v %11.4fs %11.4fs\n", name, sh, est, act[0])
		}
		fmt.Println()
	}
	fmt.Println("Estimates need not match actuals in magnitude — the design search")
	fmt.Println("only needs them to rank allocations the same way.")
}
