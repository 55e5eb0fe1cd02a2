package main

import (
	"fmt"
	"math"
	"sort"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

// exactOnSingleClient lists the per-layer metrics that are pure functions
// of the generated inputs: counts, and ratios of counts, taken over the
// fixed laps. With one client and no timers they must repeat exactly from
// run to run of one seed; A/A mode checks that they do.
var exactOnSingleClient = []string{
	"optimizer.optimize_calls_per_op", "optimizer.recost_fast_ratio",
	"executor.pages_skipped_ratio", "executor.block_cache_hit_ratio",
	"buffer.hit_ratio", "buffer.evictions_per_op", "buffer.writebacks_per_op",
	"vm.sim_s_per_op", "vm.seq_reads_per_op", "vm.rand_reads_per_op", "vm.writes_per_op", "vm.log_flushes_per_op",
	"engine.txn_aborts", "wal.fsync_coalesced_ratio",
	"core.shared_hit_ratio", "core.prepared_hit_ratio",
	"server.coalesce_hit_ratio", "server.rejected_frac",
	"placement.machine_memo_hit_ratio", "placement.dirty_machines_per_event", "placement.classes",
	"autotune.resolves_per_tick", "autotune.actuations",
}

// quartiles are Python's statistics.quantiles(values, n=4), the cut
// points the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	m := len(x)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAA runs n full sets of the same code, alternating the workload order,
// and prints for every end-to-end metric of every workload its spread
// next to its bound. With fewer than four sets the spread is
// (max-min)/median; from four on it is the driver's measure, the distance
// between the quartiles over the median. It reports false when an output
// was incorrect, when a spread other than setup_s's exceeds its bound, or
// when a metric that must repeat exactly did not.
func runAA(n int, seed int64, seconds float64, varySeeds bool) bool {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	ok := true
	for set := 0; set < n; set++ {
		order := append([]workloadDef(nil), workloadDefs...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		s := seed
		if varySeeds {
			s += int64(set)
		}
		for _, wd := range order {
			for _, traced := range []bool{false, true} {
				logf("A/A set %d/%d: %s seed=%d traced=%v", set+1, n, wd.Name, s, traced)
				res, err := runWorkload(wd.Name, s, seconds, traced, benchSizing)
				if err != nil {
					fatal(err)
				}
				if !res.Correct {
					ok = false
					printResult(res)
				}
				for name, v := range res.values {
					k := key{wd.Name, name}
					values[k] = append(values[k], v)
				}
			}
		}
	}

	fmt.Printf("%-14s %-18s %14s %10s %10s %7s  %s\n", "workload", "metric", "median", "range/med", "iqr/med", "bound", "verdict")
	for _, wd := range workloadDefs {
		for _, d := range endToEnd {
			v := values[key{wd.Name, d.Name}]
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			med := median(v)
			rng, iqr := ratio(hi-lo, med), math.NaN()
			spread := rng
			if len(v) >= 4 {
				q1, _, q3 := quartiles(v)
				iqr = ratio(q3-q1, med)
				spread = iqr
			}
			verdict := "ok"
			switch {
			case spread > d.Bound && d.Name == "setup_s":
				verdict = "wide (not gated)"
			case spread > d.Bound:
				verdict = "EXCEEDS BOUND"
				ok = false
			case spread > d.Bound/3:
				verdict = "ok, above a third of the bound"
			}
			fmt.Printf("%-14s %-18s %14.6g %10.4f %10.4f %7.2f  %s\n", wd.Name, d.Name, med, rng, iqr, d.Bound, verdict)
		}
	}
	if varySeeds {
		return ok
	}
	for _, wd := range workloadDefs {
		if wd.Name == "tuner_service" {
			continue // two clients: counts depend on interleaving
		}
		for _, name := range exactOnSingleClient {
			v := values[key{wd.Name, name}]
			for _, x := range v {
				if x != v[0] {
					fmt.Printf("%-14s %-40s does not repeat exactly: %v\n", wd.Name, name, v)
					ok = false
					break
				}
			}
		}
		a := values[key{wd.Name, "alloc_kb_per_op"}]
		for _, x := range a {
			if math.Abs(x-a[0]) > 0.01*a[0] {
				fmt.Printf("%-14s alloc_kb_per_op moves by more than 1%%: %v\n", wd.Name, a)
				ok = false
				break
			}
		}
	}
	return ok
}
