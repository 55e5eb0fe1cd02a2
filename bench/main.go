// Command bench is the repository's performance ledger: four seeded
// workloads, each checked for correctness, each reporting the same seven
// end-to-end metrics and, on a traced run, the per-layer metrics. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// Usage (from the repository root):
//
//	go run ./bench                                   # all workloads, untraced then traced
//	go run ./bench --workload oltp --seed 1 --seconds 20 --trace 0
//	go run ./bench -aa 3                             # A/A: spreads against the bounds
//	go run ./bench -dump-ops oltp                    # the generated inputs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// outDir receives trace files, results and scratch databases.
var outDir = "bench/out"

var quiet bool

// logf reports progress on standard error; standard output carries only
// metrics and the result line.
func logf(format string, args ...any) {
	if !quiet {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

func newRunner(name string, seed int64, sz sizing, tr *tracer) (runner, error) {
	switch name {
	case "olap":
		return newOLAP(seed, sz, tr)
	case "oltp":
		return newOLTP(seed, sz, tr), nil
	case "tuner_service":
		return newTuner(seed, sz, tr), nil
	case "fleet_control":
		return newFleet(seed, sz, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	wl := flag.String("workload", "", "run one workload and print one result line (the driver's mode); empty runs all four, untraced then traced")
	seed := flag.Int64("seed", 1, "generator seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "seconds of timed laps per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	aa := flag.Int("aa", 0, "A/A mode: run this many full sets and compare every metric's spread with its bound")
	aaSeeds := flag.Bool("aa-seeds", false, "A/A mode: give every set another seed, as the driver does")
	dump := flag.String("dump-ops", "", "print the generated ops of the fixed laps of this workload and exit")
	flag.BoolVar(&recordGolden, "record-golden", false, "olap: rewrite "+olapGoldenPath+" from this run instead of checking against it")
	flag.BoolVar(&quiet, "quiet", false, "no progress on standard error")
	scale := flag.Float64("scale", 1, "share of the frozen lap lengths and fleet size to run; below 1 the HTTP workloads also use tiny databases (smoke runs, never for numbers)")
	flag.Parse()
	benchSizing.scale = *scale

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *dump != "":
		if err := dumpOps(*dump, *seed); err != nil {
			fatal(err)
		}
	case *aa > 0:
		if !runAA(*aa, *seed, *seconds, *aaSeeds) {
			os.Exit(1)
		}
	case *wl != "":
		res, err := runWorkload(*wl, *seed, *seconds, *trace == 1, benchSizing)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]measurement `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	default:
		if !runAll(*seed, *seconds) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// printResult prints every metric of the run by name with its unit.
func printResult(r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("# %s seed=%d %s: laps=%d ops_attempted=%d ops_failed=%d latency_samples=%d correct=%v\n",
		r.Workload, r.Seed, mode, r.Laps, r.Attempted, r.Failed, r.Samples, r.Correct)
	if r.Traced {
		fmt.Printf("#   %.1f%% of the traced ops' time is attributed to a layer; trace written to %s\n", 100*r.Attributed, r.TraceFile)
	}
	for _, e := range r.Errors {
		fmt.Printf("#   error: %s\n", e)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-16s %-40s %16.6g %s\n", r.Workload, d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
}

// runAll runs every workload untraced and traced, prints every metric and
// writes the results to bench/out/result.json. It reports whether every
// output was correct.
func runAll(seed int64, seconds float64) bool {
	ok := true
	var results []*result
	for _, wd := range workloadDefs {
		for _, traced := range []bool{false, true} {
			logf("running %s (traced=%v)", wd.Name, traced)
			res, err := runWorkload(wd.Name, seed, seconds, traced, benchSizing)
			if err != nil {
				fatal(err)
			}
			printResult(res)
			ok = ok && res.Correct
			results = append(results, res)
		}
	}
	data, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	logf("wrote %s", path)
	return ok
}

// dumpOps prints the inputs the generator emits for the fixed laps.
func dumpOps(name string, seed int64) error {
	w, err := newRunner(name, seed, benchSizing, nil)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return err
	}
	kinds := w.kinds()
	for lap := 0; lap < fixedLaps; lap++ {
		for c, ops := range w.lap(lap) {
			for i, o := range ops {
				in := o.sql
				if in == "" {
					in = o.method + " " + o.path + " " + o.body
				}
				fmt.Printf("lap=%d client=%d op=%d kind=%s %s\n", lap, c, i, kinds[o.kind], in)
			}
		}
	}
	return nil
}
