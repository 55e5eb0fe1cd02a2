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
	"strconv"
	"strings"

	"dbvirt/internal/core"
	"dbvirt/internal/experiments"
	"dbvirt/internal/obs"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// closeObs flushes -trace-out/-metrics-out; set once telemetry is up so
// fail() can flush on error exits too.
var closeObs = func() error { return nil }

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

	tel, closeFn, handled, err := oflags.Setup("vdtune")
	if err != nil {
		fail("%v", err)
	}
	if handled {
		return
	}
	closeObs = closeFn
	root := tel.Span("vdtune")
	obs.EnvSpanContext().Annotate(root)

	if len(wflags) < 2 {
		fail("need at least two -w workload specs, e.g. -w W1=Q4x3 -w W2=Q13x9")
	}

	env, err := experiments.EnvForScale(*scale)
	if err != nil {
		fail("%v", err)
	}
	if *scale == "tiny" {
		// The tiny quick path runs on QuickEnv's 16 MiB machine: its
		// calibration tables are a quarter the default machine's, so a
		// tuning run takes a fraction of the time.
		env = experiments.NewEnv(env.Scale, experiments.QuickEnv().Machine)
	}

	var specs []*core.WorkloadSpec
	for _, wf := range wflags {
		spec, err := parseWorkload(env, wf)
		if err != nil {
			fail("%v", err)
		}
		specs = append(specs, spec)
	}

	var res []vm.Resource
	for _, r := range strings.Split(*resources, ",") {
		switch strings.TrimSpace(strings.ToLower(r)) {
		case "cpu":
			res = append(res, vm.CPU)
		case "memory", "mem":
			res = append(res, vm.Memory)
		case "io":
			res = append(res, vm.IO)
		default:
			fail("unknown resource %q", r)
		}
	}

	env.Parallelism = *jobs
	env.Obs = tel
	problem := &core.Problem{Workloads: specs, Resources: res, Step: *step, Parallelism: *jobs, Obs: tel}
	model := &core.WhatIfModel{Cal: env.Calibrator()}

	fmt.Printf("Calibrating and solving (%s, step %.0f%%)...\n", *algo, *step*100)
	var solve func(context.Context, *core.Problem, core.CostModel) (*core.Result, error)
	switch *algo {
	case "dp":
		solve = core.SolveDP
	case "greedy":
		solve = core.SolveGreedy
	case "exhaustive":
		solve = core.SolveExhaustive
	default:
		fail("unknown algorithm %q", *algo)
	}
	sol, err := solve(context.Background(), problem, model)
	if err != nil {
		fail("solve: %v", err)
	}

	// Stream the solved problem into per-workload telemetry: the sketch
	// records what each workload runs, the reservoir its predicted cost —
	// so -metrics-out / -debug-addr expose telemetry.* for one-shot tuning
	// runs exactly as vdtuned does for served traffic.
	hub := telemetry.NewHub(telemetry.Config{})
	for i, spec := range specs {
		ten := hub.Tenant(spec.Name)
		for _, norm := range spec.NormalizedStatements() {
			ten.ObserveQuery(norm)
		}
		ten.ObserveCosts([]float64{sol.PredictedCosts[i]})
	}

	fmt.Printf("\nRecommended allocation (%s):\n", sol.Algorithm)
	for i, spec := range specs {
		fmt.Printf("  %-12s %v (predicted %.3fs)\n", spec.Name, sol.Allocation[i], sol.PredictedCosts[i])
	}
	fmt.Printf("  predicted objective: %.3fs (%d cost-model evaluations)\n",
		sol.PredictedTotal, sol.Evaluations)

	if *measure {
		fmt.Println("\nValidating by actual execution...")
		chosen, err := core.MeasureAllocation(env.Machine, env.Engine, specs, sol.Allocation, true)
		if err != nil {
			fail("measure chosen: %v", err)
		}
		equal, err := core.MeasureAllocation(env.Machine, env.Engine, specs, core.EqualAllocation(len(specs)), true)
		if err != nil {
			fail("measure equal: %v", err)
		}
		fmt.Printf("  %-12s %10s %10s\n", "workload", "equal", "chosen")
		var se, sc float64
		for i, spec := range specs {
			// Predicted-vs-measured is exactly a calibration residual:
			// fold it into the per-workload drift gauges.
			hub.Tenant(spec.Name).ObserveResidual(sol.PredictedCosts[i], chosen[i])
			fmt.Printf("  %-12s %9.3fs %9.3fs\n", spec.Name, equal[i], chosen[i])
			se += equal[i]
			sc += chosen[i]
		}
		fmt.Printf("  %-12s %9.3fs %9.3fs (%+.0f%%)\n", "total", se, sc, (sc/se-1)*100)
	}

	root.End()
	if err := closeObs(); err != nil {
		fmt.Fprintf(os.Stderr, "vdtune: telemetry: %v\n", err)
		os.Exit(1)
	}
}

func parseWorkload(env *experiments.Env, spec string) (*core.WorkloadSpec, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("workload spec %q must be name=QUERYxN", spec)
	}
	qname, nstr, ok := strings.Cut(rest, "x")
	n := 1
	if ok {
		var err error
		n, err = strconv.Atoi(nstr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad repetition count in %q", spec)
		}
	} else {
		qname = rest
	}
	qname = strings.ToUpper(strings.TrimSpace(qname))
	queries := workload.Queries()
	q, found := queries[qname]
	if !found {
		var names []string
		for k := range queries {
			names = append(names, k)
		}
		return nil, fmt.Errorf("unknown query %q (have %s)", qname, strings.Join(names, ", "))
	}
	fmt.Printf("Loading database for %s (%s x%d)...\n", name, qname, n)
	db, err := env.DB("vdtune-" + name)
	if err != nil {
		return nil, err
	}
	return &core.WorkloadSpec{
		Name:       name,
		Statements: workload.Repeat(name, q, n).Statements,
		DB:         db,
	}, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vdtune: "+format+"\n", args...)
	closeObs() // best-effort flush of -trace-out/-metrics-out
	os.Exit(1)
}
