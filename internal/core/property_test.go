// Property-based and metamorphic tests of the what-if cost model: rather
// than pinning specific numbers, they assert relations that must hold
// across a seeded lattice of problems — relations the design-search
// algorithms silently rely on (greedy's marginal-gain step assumes more
// resources never hurt; every solver assumes workload order is
// presentation, not physics).
package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// propertyModel builds a grid-backed what-if model and a set of workload
// specs over tiny databases — small enough that the full lattice sweep
// stays fast, real enough to exercise parse/bind/plan/cost end to end.
func propertyModel(t *testing.T) (core.CostModel, []*core.WorkloadSpec) {
	t.Helper()
	axes := []float64{0.25, 0.5, 0.75, 1.0}
	grid, err := calibration.SyntheticGrid(axes, axes)
	if err != nil {
		t.Fatalf("SyntheticGrid: %v", err)
	}
	env := workload.NewEnv(workload.TinyScale(), vm.DefaultMachineConfig())
	var specs []*core.WorkloadSpec
	for _, q := range []struct {
		name   string
		repeat int
	}{{"Q4", 2}, {"Q13", 3}, {"Q6", 1}, {"Q1", 1}} {
		db, err := env.DB("prop-" + q.name)
		if err != nil {
			t.Fatalf("building %s: %v", q.name, err)
		}
		specs = append(specs, &core.WorkloadSpec{
			Name:       fmt.Sprintf("%sx%d", q.name, q.repeat),
			Statements: workload.Repeat(q.name, workload.Query(q.name), q.repeat).Statements,
			DB:         db,
		})
	}
	return &core.WhatIfModel{Grid: grid}, specs
}

// sharesLattice enumerates a seeded lattice of allocations (all
// combinations of the given values on each axis).
func sharesLattice(vals []float64) []vm.Shares {
	var out []vm.Shares
	for _, c := range vals {
		for _, m := range vals {
			for _, io := range vals {
				out = append(out, vm.Shares{CPU: c, Memory: m, IO: io})
			}
		}
	}
	return out
}

// TestCostMonotoneInShares: growing any single resource share, all else
// fixed, never increases a workload's predicted cost. More CPU, memory,
// or I/O bandwidth can only help; a violation would let the greedy
// solver's marginal-gain step go negative and strand resources.
func TestCostMonotoneInShares(t *testing.T) {
	model, specs := propertyModel(t)
	ctx := context.Background()
	vals := []float64{0.25, 0.5, 0.75, 1.0}

	cost := func(w *core.WorkloadSpec, s vm.Shares) float64 {
		c, err := model.Cost(ctx, w, s)
		if err != nil {
			t.Fatalf("Cost(%s, %+v): %v", w.Name, s, err)
		}
		return c
	}
	bump := func(s vm.Shares, axis int, v float64) vm.Shares {
		switch axis {
		case 0:
			s.CPU = v
		case 1:
			s.Memory = v
		default:
			s.IO = v
		}
		return s
	}
	axisVal := func(s vm.Shares, axis int) float64 {
		return [3]float64{s.CPU, s.Memory, s.IO}[axis]
	}

	const slack = 1e-9 // relative; interpolation arithmetic only
	for _, w := range specs {
		for _, base := range sharesLattice(vals) {
			for axis, name := range []string{"cpu", "memory", "io"} {
				for _, v := range vals {
					if v <= axisVal(base, axis) {
						continue
					}
					lo, hi := cost(w, base), cost(w, bump(base, axis, v))
					if hi > lo*(1+slack) {
						t.Fatalf("%s: cost increased when %s grew %g -> %g at %+v: %.12g -> %.12g",
							w.Name, name, axisVal(base, axis), v, base, lo, hi)
					}
				}
			}
		}
	}
}

// TestCostPermutationInvariant: workloads are costed independently, so
// reordering the workload list permutes the per-workload costs exactly
// and leaves the total unchanged up to float-summation order. A
// violation would mean request ordering — pure presentation — leaks into
// recommendations.
func TestCostPermutationInvariant(t *testing.T) {
	model, specs := propertyModel(t)
	ctx := context.Background()
	allocs := sharesLattice([]float64{0.25, 0.5, 1.0})

	base, err := core.CostMatrix(ctx, model, specs, allocs)
	if err != nil {
		t.Fatalf("CostMatrix: %v", err)
	}
	perms := [][]int{
		{3, 2, 1, 0},
		{1, 0, 3, 2},
		{2, 3, 0, 1},
	}
	for _, perm := range perms {
		shuffled := make([]*core.WorkloadSpec, len(specs))
		for i, j := range perm {
			shuffled[i] = specs[j]
		}
		got, err := core.CostMatrix(ctx, model, shuffled, allocs)
		if err != nil {
			t.Fatalf("CostMatrix(perm %v): %v", perm, err)
		}
		for i, j := range perm {
			for a := range allocs {
				// Exact equality: each workload's cost is computed by the
				// same pure function either way.
				if got[i][a] != base[j][a] {
					t.Fatalf("perm %v: workload %s alloc %d: %g != %g",
						perm, specs[j].Name, a, got[i][a], base[j][a])
				}
			}
		}
		// Totals may differ only by summation order.
		for a := range allocs {
			var sumBase, sumGot float64
			for i := range specs {
				sumBase += base[i][a]
				sumGot += got[i][a]
			}
			if diff := math.Abs(sumBase - sumGot); diff > 1e-9*math.Max(math.Abs(sumBase), 1) {
				t.Fatalf("perm %v alloc %d: total drifted %g vs %g", perm, a, sumGot, sumBase)
			}
		}
	}
}

// TestSolversAgreeOnLattice: on problems small enough to enumerate, DP
// and exhaustive search must find allocations of equal objective value —
// DP's decomposition is an optimization, not an approximation.
func TestSolversAgreeOnLattice(t *testing.T) {
	model, specs := propertyModel(t)
	ctx := context.Background()
	for _, n := range []int{2, 3} {
		p := &core.Problem{
			Workloads: specs[:n],
			Resources: []vm.Resource{vm.CPU},
			Step:      0.25,
		}
		dp, err := core.SolveDP(ctx, p, model)
		if err != nil {
			t.Fatalf("SolveDP(n=%d): %v", n, err)
		}
		ex, err := core.SolveExhaustive(ctx, p, model)
		if err != nil {
			t.Fatalf("SolveExhaustive(n=%d): %v", n, err)
		}
		if diff := math.Abs(dp.PredictedTotal - ex.PredictedTotal); diff > 1e-9*math.Max(ex.PredictedTotal, 1) {
			t.Fatalf("n=%d: DP total %.12g != exhaustive total %.12g", n, dp.PredictedTotal, ex.PredictedTotal)
		}
	}
}
