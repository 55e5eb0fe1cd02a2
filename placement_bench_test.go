package dbvirt_test

import (
	"context"
	"fmt"
	"testing"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/experiments"
	"dbvirt/internal/obs"
	"dbvirt/internal/placement"
	"dbvirt/internal/workload"
)

// fleetSize is the BENCH_9 regime: >= 1,000 tenants at paper scale, a
// smaller fleet under -short (CI).
func fleetSize() int {
	if testing.Short() {
		return 300
	}
	return 1000
}

// newFleetSolver builds a cold fleet solver: fresh synthetic grid, fresh
// what-if model (empty prepared-statement cache and cost atoms) — the
// from-scratch baseline an incremental Apply is measured against.
func newFleetSolver(b *testing.B, e *workload.Env) *placement.Solver {
	b.Helper()
	axes := []float64{0.25, 0.5, 0.75, 1.0}
	grid, err := calibration.SyntheticGrid(axes, axes, axes)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := placement.NewSolver(placement.Config{}, &core.WhatIfModel{Grid: grid})
	if err != nil {
		b.Fatal(err)
	}
	return solver
}

// BenchmarkPlacementFleet measures fleet placement at BENCH_9 scale:
//
//   - full: a from-scratch solve — cold solver, cold cost model — of the
//     whole fleet, the cost a naive controller pays per fleet change.
//   - incremental: a single fleet event per iteration (alternating one
//     tenant arrival and its departure) applied to a warm placement via
//     Placement.Apply, which re-solves only the dirty machine shapes
//     against the solver's memos. The first pair runs before the timer
//     starts, so every timed event is a steady-state one.
//
// The ns/op ratio full/incremental is therefore the per-event speedup;
// the CI placement-bench job asserts it stays >= 5x, and BENCH_9.json
// records the measured value. incremental also reports reclusters/event,
// the clustering passes per event: its arrival is interned to a fleet
// spec, so the group signatures never change and CI gates it at 0.01.
func BenchmarkPlacementFleet(b *testing.B) {
	e := sharedEnv(b)
	ctx := context.Background()
	n := fleetSize()
	tenants, err := experiments.FleetTenants(e, n, 11)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver := newFleetSolver(b, e)
			pl, err := solver.Solve(ctx, tenants)
			if err != nil {
				b.Fatal(err)
			}
			if err := pl.Verify(ctx); err != nil {
				b.Fatal(err)
			}
			if pl.Stats.Tenants != n {
				b.Fatalf("placed %d of %d tenants", pl.Stats.Tenants, n)
			}
		}
	})

	b.Run("incremental", func(b *testing.B) {
		solver := newFleetSolver(b, e)
		pl, err := solver.Solve(ctx, tenants)
		if err != nil {
			b.Fatal(err)
		}
		extra, err := experiments.FleetTenants(e, 1, 997)
		if err != nil {
			b.Fatal(err)
		}
		extra[0].Name = "t-extra"
		arrive := placement.Event{Type: placement.Arrive, Tenant: extra[0]}
		leave := placement.Event{Type: placement.Leave, Name: "t-extra"}
		// One untimed arrive/leave pair prices the shapes the arrival
		// creates (~135 cold machine solves) and sizes the placement's
		// spare buffers, so even a 10-iteration run times steady-state
		// events.
		for _, ev := range []placement.Event{arrive, leave} {
			if _, err := pl.Apply(ctx, ev); err != nil {
				b.Fatal(err)
			}
		}
		reclusters := obs.Global.Counter("placement.recluster.count")
		before := reclusters.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := arrive
			if i%2 == 1 {
				ev = leave
			}
			if _, err := pl.Apply(ctx, ev); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(reclusters.Value()-before)/float64(b.N), "reclusters/event")
	})

	emit("placement", fmt.Sprintf("placement fleet: %d tenants\n", n))
}
