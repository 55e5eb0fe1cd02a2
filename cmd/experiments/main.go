// Command experiments regenerates the paper record: every data-bearing
// figure of the paper (Figures 3, 4, 5) plus the extension figures and
// the ablation studies listed in DESIGN.md, printing the same
// rows/series the paper reports.
//
// Usage:
//
//	experiments [-fig NAME|all] [-quick]
//
// NAME is one entry of experiments.Paper (figure3, figure4, figure5,
// figure_write, figure_placement, figure_control, search, grid, overlap,
// dynamic, slo, memory). -quick runs at a reduced scale (smaller machine
// and dataset); the shapes are preserved.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dbvirt/internal/experiments"
	"dbvirt/internal/obs"
	"dbvirt/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams passed in; it
// returns the exit status: 2 for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "which experiment to run: an experiments.Paper name, or all")
	quick := fs.Bool("quick", false, "run at reduced scale")
	jobs := fs.Int("j", 0, "worker-pool size for calibration and search (0 = GOMAXPROCS)")
	var oflags obs.Flags
	oflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var names []string
	var selected []experiments.Experiment
	for _, x := range experiments.Paper {
		names = append(names, x.Name)
		if *fig == x.Name || *fig == "all" {
			selected = append(selected, x)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "experiments: unknown -fig %q (want all or one of %s)\n", *fig, strings.Join(names, ", "))
		return 2
	}

	handled, err := oflags.Setup("experiments")
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	if handled {
		return 0
	}
	root := obs.StartSpan("experiments")
	obs.EnvSpanContext().Annotate(root)

	env := workload.DefaultEnv()
	if *quick {
		env = workload.QuickEnv()
	}
	env.Parallelism = *jobs

	// Per-experiment machine-readable summary: counter deltas per
	// experiment, embedded in the -metrics-out JSON under extra.figures.
	summary := map[string]map[string]int64{}
	reg := obs.Global
	reg.SetExtra("figures", func() any { return summary })

	for i, x := range selected {
		sp := root.Child(x.Name)
		before := reg.CounterValues()
		rows, err := x.Run(env)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", x.Name, err)
			obs.Close() // best-effort flush
			return 1
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, x.Text(rows))
		delta := map[string]int64{}
		for k, v := range reg.CounterValues() {
			if d := v - before[k]; d != 0 {
				delta[k] = d
			}
		}
		summary[x.Name] = delta
		sp.End()
	}

	root.End()
	if err := obs.Close(); err != nil {
		fmt.Fprintf(stderr, "experiments: telemetry: %v\n", err)
		return 1
	}
	return 0
}
