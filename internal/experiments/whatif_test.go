package experiments

import (
	"context"
	"testing"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/obs"
	"dbvirt/internal/workload"
)

// TestSyntheticGridMatrixEquivalence drives the full what-if matrix —
// every workload priced at every lattice allocation — through both the
// memoized model and the cold (NoPrepare) model and requires
// bit-identical cost matrices, with the re-costing fast path actually
// engaged on the memoized side.
func TestSyntheticGridMatrixEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds workload databases")
	}
	e := workload.QuickEnv()
	specs, err := MatrixWorkloads(e, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := calibration.SyntheticGrid([]float64{0.25, 1.0}, []float64{0.5, 1.0}, []float64{0.25, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	allocs := g.Allocations()

	ctx := context.Background()
	fastBefore := obs.Global.Counter("whatif.recost.fast").Value()
	memo, err := core.CostMatrix(ctx, &core.WhatIfModel{Grid: g}, specs, allocs)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.CostMatrix(ctx, &core.WhatIfModel{Grid: g, NoPrepare: true}, specs, allocs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		for j := range allocs {
			if memo[i][j] != cold[i][j] {
				t.Errorf("%s @ %v: memoized %v, cold %v",
					specs[i].Name, allocs[j], memo[i][j], cold[i][j])
			}
			if memo[i][j] <= 0 {
				t.Errorf("%s @ %v: non-positive cost %v", specs[i].Name, allocs[j], memo[i][j])
			}
		}
	}
	if got := obs.Global.Counter("whatif.recost.fast").Value() - fastBefore; got == 0 {
		t.Error("memoized matrix never took the re-costing fast path")
	}
}
