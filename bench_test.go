// Benchmark harness: one benchmark per data-bearing figure of the paper
// (Figures 3, 4, 5 — the paper has no numbered tables) plus the ablation
// and extension studies from DESIGN.md. Each benchmark regenerates its
// figure end-to-end — building the workload databases, calibrating the
// optimizer, searching, and measuring — and prints the same rows/series
// the paper reports (once per process) alongside benchmark metrics.
//
// Run with:
//
//	go test -bench=. -benchmem            # paper scale
//	go test -short -bench=. -benchmem     # reduced scale, same shapes
package dbvirt_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/experiments"
	"dbvirt/internal/obs"
	"dbvirt/internal/workload"
)

// TestMain dumps the process-global metrics registry after the run when
// DBVIRT_METRICS_OUT is set, so CI can archive the counters and
// histograms a benchmark sweep produced.
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("DBVIRT_METRICS_OUT"); path != "" {
		if err := obs.WriteMetricsFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

var (
	envOnce sync.Once
	env     *workload.Env
)

// sharedEnv builds the experiment environment once per process: the
// workload databases and the calibration cache are shared by all
// benchmarks, as they would be in the paper's test bed.
func sharedEnv(b *testing.B) *workload.Env {
	b.Helper()
	envOnce.Do(func() {
		if testing.Short() {
			env = workload.QuickEnv()
		} else {
			env = workload.DefaultEnv()
		}
	})
	return env
}

var printOnce sync.Map

// emit prints a figure's series once per process.
func emit(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println()
		fmt.Print(text)
	}
}

// BenchmarkFigure3CPUTupleCost regenerates Figure 3: the calibrated
// cpu_tuple_cost over CPU shares {25,50,75}% x memory shares {25,50,75}%.
func BenchmarkFigure3CPUTupleCost(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(e, []float64{0.25, 0.5, 0.75}, []float64{0.25, 0.5, 0.75}, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("fig3", experiments.FormatFigure3(rows))
			// Headline metric: how much more expensive a tuple looks at a
			// 25% CPU share than at 75% (paper: clearly sensitive).
			b.ReportMetric(rows[0].CPUTupleCost/rows[2].CPUTupleCost, "cpu_tuple_25/75")
		}
	}
}

// BenchmarkFigure4Sensitivity regenerates Figure 4: estimated and actual
// execution times of Q4 and Q13 at CPU shares {25,50,75}% (memory 50%).
func BenchmarkFigure4Sensitivity(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(e, []float64{0.25, 0.5, 0.75})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("fig4", experiments.FormatFigure4(res))
			b.ReportMetric(res.NormActQ13[0], "q13_act_25%")
			b.ReportMetric(res.NormActQ13[2], "q13_act_75%")
			b.ReportMetric(res.NormActQ4[0], "q4_act_25%")
		}
	}
}

// BenchmarkFigure5WorkloadSplit regenerates Figure 5: the what-if search
// chooses the CPU split for W1=3xQ4 and W2=9xQ13, validated by actual
// execution against the default equal split.
func BenchmarkFigure5WorkloadSplit(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("fig5", experiments.FormatFigure5(res))
			gain, loss := res.Improvement()
			b.ReportMetric(gain*100, "w2_gain_%")
			b.ReportMetric(loss*100, "w1_loss_%")
		}
	}
}

// BenchmarkWhatIfCostMatrix measures the design search's inner loop —
// every workload priced at every candidate allocation — in the two
// regimes the what-if re-costing fast path distinguishes. "cold"
// re-parses, re-binds, and re-enumerates each statement on every call
// (the pre-memoization behavior, via NoPrepare); "memo" shares one
// model whose prepared statements carry their plan-space memos and
// enumeration snapshots across the whole matrix, so most calls are
// O(plan nodes) re-costs. The parameter lattice is synthetic and
// deterministic: no calibration runs, identical costs both ways.
func BenchmarkWhatIfCostMatrix(b *testing.B) {
	e := sharedEnv(b)
	specs, err := experiments.MatrixWorkloads(e, 3, 9)
	if err != nil {
		b.Fatal(err)
	}
	axis := []float64{0.25, 0.5, 0.75, 1.0}
	g, err := calibration.SyntheticGrid(axis, axis)
	if err != nil {
		b.Fatal(err)
	}
	allocs := g.Allocations()
	ctx := context.Background()

	matrix := func(b *testing.B, model *core.WhatIfModel) [][]float64 {
		var out [][]float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := core.CostMatrix(ctx, model, specs, allocs)
			if err != nil {
				b.Fatal(err)
			}
			out = m
		}
		b.ReportMetric(float64(len(specs)*len(allocs)), "whatif_calls/op")
		return out
	}

	var cold, memo [][]float64
	b.Run("cold", func(b *testing.B) {
		cold = matrix(b, &core.WhatIfModel{Grid: g, NoPrepare: true})
	})
	b.Run("memo", func(b *testing.B) {
		memo = matrix(b, &core.WhatIfModel{Grid: g})
	})
	// The fast path is only a fast path if it changes nothing.
	for i := range cold {
		for j := range cold[i] {
			if memo == nil || memo[i][j] != cold[i][j] {
				b.Fatalf("cost divergence at [%d][%d]: memo %v, cold %v", i, j, memo[i][j], cold[i][j])
			}
		}
	}
}

// BenchmarkAblationSearch compares equal/greedy/dp/exhaustive on a
// three-workload design problem.
func BenchmarkAblationSearch(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSearch(e, 3, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("search", experiments.FormatSearch(rows))
			var eq, dp float64
			for _, r := range rows {
				switch r.Algorithm {
				case "equal":
					eq = r.MeasuredTotal
				case "dp":
					dp = r.MeasuredTotal
				}
			}
			b.ReportMetric((1-dp/eq)*100, "dp_vs_equal_gain_%")
		}
	}
}

// BenchmarkAblationCalibrationGrid quantifies grid coarseness vs
// interpolation error (the paper's calibration-cost refinement).
func BenchmarkAblationCalibrationGrid(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationCalibrationGrid(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("grid", experiments.FormatGrid(rows))
			b.ReportMetric(rows[0].MeanRelErr*100, "coarse_err_%")
			b.ReportMetric(rows[len(rows)-1].MeanRelErr*100, "fine_err_%")
		}
	}
}

// BenchmarkAblationOverlap varies the machine's CPU/I-O overlap and
// reports Q4's measured CPU sensitivity.
func BenchmarkAblationOverlap(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationOverlap(e, []float64{0, 0.5, 0.75, 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("overlap", experiments.FormatOverlap(rows))
			b.ReportMetric(rows[0].Q4Sensitivity, "q4_sens_serial")
			b.ReportMetric(rows[len(rows)-1].Q4Sensitivity, "q4_sens_overlap")
		}
	}
}

// BenchmarkDynamicReconfig runs the Section 7 dynamic extension: a
// workload phase change handled by online re-solving and VM
// reconfiguration.
func BenchmarkDynamicReconfig(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.DynamicReconfig(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("dynamic", experiments.FormatDynamic(res))
			b.ReportMetric((1-res.DynamicTotal/res.StaticTotal)*100, "dynamic_gain_%")
		}
	}
}

// BenchmarkSLOWeighted runs the Section 7 service-level-objective
// extension.
func BenchmarkSLOWeighted(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.SLOWeighted(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("slo", experiments.FormatSLO(res))
			b.ReportMetric(res.W1CostConstrained, "w1_cost_slo_s")
		}
	}
}

// BenchmarkMemoryDimension compares CPU-only against joint CPU+memory
// optimization in the regime where the memory share decides whether the
// hot relation is cached.
func BenchmarkMemoryDimension(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.MemoryDimension(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("memdim", experiments.FormatMemoryDimension(res))
			b.ReportMetric((1-res.JointMeasured/res.CPUOnlyMeasured)*100, "joint_gain_%")
		}
	}
}
