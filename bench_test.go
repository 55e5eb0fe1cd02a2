// Root benchmarks: the what-if cost matrix here and fleet placement in
// placement_bench_test.go. The paper's figures and ablations are not
// benchmarks; cmd/experiments prints them and
// internal/experiments/testdata/paper.json pins them.
//
// Run with:
//
//	go test -bench=. -benchmem            # paper scale
//	go test -short -bench=. -benchmem     # reduced scale
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

// sharedEnv builds the benchmark environment once per process: the
// workload databases are shared by all benchmarks.
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
