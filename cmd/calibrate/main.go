// Command calibrate runs the paper's optimizer calibration (Section 5)
// over a lattice of resource allocations and prints the resulting
// parameter vectors P(R). With -out it also writes the lattice to a grid
// file, the one format calibration.LoadGrid and vdtuned -grid read.
//
// Long calibrations are interruptible and restartable: -timeout bounds
// the whole run, the -out file is rewritten atomically after every
// completed lattice point, and -resume picks an interrupted run back up
// from it without repeating finished measurements. -faults injects
// deterministic measurement faults (see internal/faults) to exercise the
// retry and recovery paths.
//
// Usage:
//
//	calibrate [-cpu 0.25,0.5,0.75] [-mem 0.5] [-io 0.5] [-quick]
//	          [-out file [-resume]] [-timeout 10m] [-faults spec] [-trials k]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dbvirt/internal/calibration"
	"dbvirt/internal/faults"
	"dbvirt/internal/obs"
	"dbvirt/internal/vm"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "calibrate: "+format+"\n", args...)
	obs.Close() // best-effort flush of -trace-out/-metrics-out
	os.Exit(1)
}

func main() {
	cpus := flag.String("cpu", "0.25,0.5,0.75", "CPU shares to calibrate")
	mems := flag.String("mem", "0.5", "memory shares to calibrate")
	ios := flag.String("io", "0.5", "I/O shares to calibrate")
	quick := flag.Bool("quick", false, "use a small machine and calibration database")
	out := flag.String("out", "", "write the lattice to this grid file after every completed point")
	jobs := flag.Int("j", 0, "worker-pool size for lattice calibration (0 = GOMAXPROCS)")
	resume := flag.Bool("resume", false, "restore completed points from -out before calibrating")
	timeout := flag.Duration("timeout", 0, "abort the calibration after this duration (0 = no limit)")
	faultSpec := flag.String("faults", "", "inject deterministic measurement faults, e.g. \"seed=42,transient=0.1,noise=0.05\" (overrides "+faults.EnvVar+")")
	trials := flag.Int("trials", 0, "timed trials per probe, aggregated by trimmed median (0 = auto)")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	flag.Parse()

	handled, err := oflags.Setup("calibrate")
	if err != nil {
		fail("%v", err)
	}
	if handled {
		return
	}
	root := obs.StartSpan("calibrate")
	obs.EnvSpanContext().Annotate(root)

	cfg := calibration.DefaultConfig()
	cfg.Parallelism = *jobs
	cfg.Trials = *trials
	if *quick {
		cfg.Machine.MemBytes = 8 << 20
		cfg.NarrowRows = 4000
		cfg.BigRows = 20000
	}
	if *faultSpec != "" {
		fcfg, err := faults.Parse(*faultSpec)
		if err != nil {
			fail("-faults: %v", err)
		}
		cfg.Faults = faults.New(fcfg)
	}
	cal := calibration.New(cfg)

	cpuAxis := parseAxis(*cpus)
	memAxis := parseAxis(*mems)
	ioAxis := parseAxis(*ios)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *resume && *out == "" {
		fail("-resume requires -out")
	}
	grid, err := cal.CalibrateGridOpts(ctx, cpuAxis, memAxis, ioAxis, calibration.GridOptions{
		CheckpointPath: *out,
		Resume:         *resume,
	})
	if err != nil {
		if _, statErr := os.Stat(*out); *out != "" && statErr == nil {
			fail("%v\n(completed points are saved in %s; rerun with -resume to continue)", err, *out)
		}
		fail("%v", err)
	}

	fmt.Printf("%-22s %9s %9s %9s %9s %9s %12s %8s\n",
		"allocation", "cpu_tup", "cpu_op", "cpu_idx", "rand_pg", "overlap", "t_seq(ms)", "ecs(pg)")
	for _, mem := range memAxis {
		for _, io := range ioAxis {
			for _, cpu := range cpuAxis {
				sh := vm.Shares{CPU: cpu, Memory: mem, IO: io}
				p, ok := grid.Lookup(sh)
				if !ok {
					fail("missing lattice point %v", sh)
				}
				fmt.Printf("%-22s %9.5f %9.5f %9.5f %9.2f %9.2f %12.3f %8d\n",
					sh, p.CPUTupleCost, p.CPUOperatorCost, p.CPUIndexTupleCost,
					p.RandomPageCost, p.Overlap, p.TimePerSeqPage*1000, p.EffectiveCacheSizePages)
			}
		}
	}

	if *out != "" {
		fmt.Printf("wrote the calibrated lattice to %s (serve with vdtuned -grid)\n", *out)
	}

	root.End()
	if err := obs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: telemetry: %v\n", err)
		os.Exit(1)
	}
}

func parseAxis(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 || v > 1 {
			fail("bad share %q", part)
		}
		out = append(out, v)
	}
	return out
}
