// Command experiments regenerates every data-bearing figure of the paper
// (Figures 3, 4, 5) plus the ablation and extension studies listed in
// DESIGN.md, printing the same rows/series the paper reports.
//
// Usage:
//
//	experiments [-fig 3|4|5|w|p|all] [-ablations] [-quick]
//
// -quick runs at a reduced scale (smaller machine and dataset); the
// shapes are preserved.
package main

import (
	"flag"
	"fmt"
	"os"

	"dbvirt/internal/experiments"
	"dbvirt/internal/obs"
	"dbvirt/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 3, 4, 5, w (write sensitivity), p (fleet placement), c (closed-loop control), or all")
	ablations := flag.Bool("ablations", false, "also run the ablation and extension studies")
	quick := flag.Bool("quick", false, "run at reduced scale")
	jobs := flag.Int("j", 0, "worker-pool size for calibration and search (0 = GOMAXPROCS)")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	flag.Parse()

	handled, err := oflags.Setup("experiments")
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if handled {
		return
	}
	root := obs.StartSpan("experiments")
	obs.EnvSpanContext().Annotate(root)

	env := workload.DefaultEnv()
	if *quick {
		env = workload.QuickEnv()
	}
	env.Parallelism = *jobs

	// Per-figure machine-readable summary: counter deltas per experiment,
	// embedded in the -metrics-out JSON under extra.figures.
	summary := map[string]map[string]int64{}
	reg := obs.Global
	reg.SetExtra("figures", func() any { return summary })

	run := func(name string, fn func() error) {
		sp := root.Child(name)
		defer sp.End()
		before := reg.CounterValues()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			obs.Close() // best-effort flush
			os.Exit(1)
		}
		after := reg.CounterValues()
		delta := map[string]int64{}
		for k, v := range after {
			if d := v - before[k]; d != 0 {
				delta[k] = d
			}
		}
		summary[name] = delta
	}

	if *fig == "3" || *fig == "all" {
		run("figure 3", func() error {
			rows, err := experiments.Figure3(env, []float64{0.25, 0.5, 0.75}, []float64{0.25, 0.5, 0.75}, 0.5)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure3(rows))
			fmt.Println()
			return nil
		})
	}
	if *fig == "4" || *fig == "all" {
		run("figure 4", func() error {
			res, err := experiments.Figure4(env, []float64{0.25, 0.5, 0.75})
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure4(res))
			fmt.Println()
			return nil
		})
	}
	if *fig == "5" || *fig == "all" {
		run("figure 5", func() error {
			res, err := experiments.Figure5(env)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure5(res))
			fmt.Println()
			return nil
		})
	}

	if *fig == "w" || *fig == "all" {
		run("figure write", func() error {
			res, err := experiments.FigureWrite(env, []float64{0.25, 0.5, 0.75})
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigureWrite(res))
			fmt.Println()
			return nil
		})
	}

	if *fig == "p" || *fig == "all" {
		run("figure placement", func() error {
			sizes := []int{100, 300, 1000}
			if *quick {
				sizes = []int{60, 200}
			}
			rows, err := experiments.FigurePlacement(env, sizes)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigurePlacement(rows))
			fmt.Println()
			return nil
		})
	}

	if *fig == "c" || *fig == "all" {
		run("figure control", func() error {
			rows, err := experiments.FigureControl(env, 6, 10)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigureControl(rows))
			fmt.Println()
			return nil
		})
	}

	if *ablations {
		run("search ablation", func() error {
			rows, err := experiments.AblationSearch(env, 3, 0.25)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSearch(rows))
			fmt.Println()
			return nil
		})
		run("grid ablation", func() error {
			rows, err := experiments.AblationCalibrationGrid(env)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatGrid(rows))
			fmt.Println()
			return nil
		})
		run("overlap ablation", func() error {
			rows, err := experiments.AblationOverlap(env, []float64{0, 0.5, 0.75, 1})
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatOverlap(rows))
			fmt.Println()
			return nil
		})
		run("dynamic extension", func() error {
			res, err := experiments.DynamicReconfig(env)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatDynamic(res))
			fmt.Println()
			return nil
		})
		run("SLO extension", func() error {
			res, err := experiments.SLOWeighted(env)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSLO(res))
			fmt.Println()
			return nil
		})
		run("memory dimension", func() error {
			res, err := experiments.MemoryDimension(env)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatMemoryDimension(res))
			return nil
		})
	}

	root.End()
	if err := obs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: telemetry: %v\n", err)
		os.Exit(1)
	}
}
