// Command vdtune solves a virtualization design problem: given N named
// workloads over TPC-H-like databases, it calibrates the optimizer, runs
// the what-if search, and prints the recommended resource-share matrix —
// optionally validating it by actually executing the workloads under both
// the recommendation and the default equal split.
//
// Usage:
//
//	vdtune -w W1=Q4x3 -w W2=Q13x9 [-resources cpu] [-step 0.25]
//	       [-algo dp|greedy|exhaustive] [-scale tiny|small|experiment] [-measure]
//
// Each -w flag is name=QUERYxN where QUERY is one of the named workload
// queries (Q1, Q3, Q4, Q6, Q13, QPOINT) and N is the repetition count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dbvirt/internal/core"
	"dbvirt/internal/obs"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

type workloadFlags []string

func (w *workloadFlags) String() string { return strings.Join(*w, ", ") }
func (w *workloadFlags) Set(v string) error {
	*w = append(*w, v)
	return nil
}

func main() {
	var wflags workloadFlags
	flag.Var(&wflags, "w", "workload spec name=QUERYxN (repeatable)")
	resources := flag.String("resources", "cpu", "comma-separated resources to optimize: cpu,memory,io")
	step := flag.Float64("step", 0.25, "share quantum of the search grid")
	algo := flag.String("algo", "dp", "search algorithm: dp, greedy, or exhaustive")
	scale := flag.String("scale", "small", "database scale: tiny, small, or experiment")
	measure := flag.Bool("measure", false, "validate the recommendation by actual execution")
	jobs := flag.Int("j", 0, "worker-pool size for calibration and search (0 = GOMAXPROCS)")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	flag.Parse()

	handled, err := oflags.Setup("vdtune")
	if err != nil {
		fail("%v", err)
	}
	if handled {
		return
	}
	root := obs.StartSpan("vdtune")
	obs.EnvSpanContext().Annotate(root)

	if len(wflags) < 2 {
		fail("need at least two -w workload specs, e.g. -w W1=Q4x3 -w W2=Q13x9")
	}

	env, err := workload.EnvForScale(*scale)
	if err != nil {
		fail("%v", err)
	}
	if *scale == "tiny" {
		// The tiny quick path runs on QuickEnv's 16 MiB machine: its
		// calibration tables are a quarter the default machine's, so a
		// tuning run takes a fraction of the time.
		env = workload.NewEnv(env.Scale, workload.QuickEnv().Machine)
	}

	// Specs are interned by content, so two -w flags running the same
	// workload share one spec; names keeps what each flag called it.
	var names []string
	var specs []*core.WorkloadSpec
	for _, wf := range wflags {
		name, spec, err := parseWorkload(env, wf)
		if err != nil {
			fail("%v", err)
		}
		names = append(names, name)
		specs = append(specs, spec)
	}

	var res []vm.Resource
	for _, name := range strings.Split(*resources, ",") {
		r, err := vm.ParseResource(name)
		if err != nil {
			fail("%v", err)
		}
		res = append(res, r)
	}

	env.Parallelism = *jobs
	problem := &core.Problem{Workloads: specs, Resources: res, Step: *step, Parallelism: *jobs}
	model := &core.WhatIfModel{Cal: env.Calibrator()}

	solve, err := core.SolverNamed(*algo)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("Calibrating and solving (%s, step %.0f%%)...\n", *algo, *step*100)
	sol, err := solve(context.Background(), problem, model)
	if err != nil {
		fail("solve: %v", err)
	}

	// Stream the solved problem into per-workload telemetry: the sketch
	// records what each workload runs, so -metrics-out / -debug-addr
	// expose telemetry.* for one-shot tuning runs exactly as vdtuned does
	// for served traffic.
	hub := telemetry.NewHub(telemetry.Config{})
	for i, spec := range specs {
		ten := hub.Tenant(names[i])
		for _, norm := range spec.NormalizedStatements() {
			ten.ObserveQuery(norm)
		}
	}

	fmt.Printf("\nRecommended allocation (%s):\n", sol.Algorithm)
	for i, name := range names {
		fmt.Printf("  %-12s %v (predicted %.3fs)\n", name, sol.Allocation[i], sol.PredictedCosts[i])
	}
	fmt.Printf("  predicted objective: %.3fs (%d cost-model evaluations)\n",
		sol.PredictedTotal, sol.Evaluations)

	if *measure {
		fmt.Println("\nValidating by actual execution...")
		chosen, err := core.MeasureAllocation(env.Machine, env.Engine, specs, sol.Allocation)
		if err != nil {
			fail("measure chosen: %v", err)
		}
		equal, err := core.MeasureAllocation(env.Machine, env.Engine, specs, core.EqualAllocation(len(specs)))
		if err != nil {
			fail("measure equal: %v", err)
		}
		fmt.Printf("  %-12s %10s %10s\n", "workload", "equal", "chosen")
		var se, sc float64
		for i, name := range names {
			// Predicted-vs-measured is exactly a calibration residual:
			// fold it into the per-workload drift gauges.
			hub.Tenant(name).ObserveResidual(sol.PredictedCosts[i], chosen[i])
			fmt.Printf("  %-12s %9.3fs %9.3fs\n", name, equal[i], chosen[i])
			se += equal[i]
			sc += chosen[i]
		}
		fmt.Printf("  %-12s %9.3fs %9.3fs (%+.0f%%)\n", "total", se, sc, (sc/se-1)*100)
	}

	root.End()
	if err := obs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "vdtune: telemetry: %v\n", err)
		os.Exit(1)
	}
}

// parseWorkload parses one -w flag, name=QUERYxN, into its name and
// interned spec.
func parseWorkload(env *workload.Env, spec string) (string, *core.WorkloadSpec, error) {
	name, ref, ok := strings.Cut(spec, "=")
	if !ok {
		return "", nil, fmt.Errorf("workload spec %q must be name=QUERYxN", spec)
	}
	qname, n, err := workload.ParseRepeat(ref)
	if err != nil {
		return "", nil, err
	}
	fmt.Printf("Loading database for %s (%s x%d)...\n", name, qname, n)
	db, err := env.DB("vdtune-" + name)
	if err != nil {
		return "", nil, err
	}
	return name, core.Intern(name, db, workload.Repeat(name, workload.Query(qname), n).Statements), nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vdtune: "+format+"\n", args...)
	obs.Close() // best-effort flush of -trace-out/-metrics-out
	os.Exit(1)
}
