package experiments

import (
	"context"
	"fmt"
	"strings"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/placement"
	"dbvirt/internal/workload"
)

// fleetQueries are the workload shapes the synthetic fleet cycles over,
// all over the environment's one database.
var fleetQueries = []string{"Q1", "Q4", "Q6", "Q13"}

// FleetTenants generates n deterministic synthetic tenants: each tenant
// runs one of the fleet query shapes repeated 1–3 times, with the
// (shape, repeat) pair drawn from a seeded hash of the tenant index.
// Specs are interned (core.Intern), so the fleet has at most
// len(fleetQueries)*3 distinct workload identities — the regime workload
// compression exploits — and every call shares them.
func FleetTenants(e *workload.Env, n int, seed uint64) ([]*placement.Tenant, error) {
	tenants := make([]*placement.Tenant, n)
	for i := 0; i < n; i++ {
		h := fleetMix(seed + uint64(i))
		q := fleetQueries[h%uint64(len(fleetQueries))]
		repeat := int(h>>8)%3 + 1
		db, err := e.DB("fleet-" + q)
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("%sx%d", q, repeat)
		spec := core.Intern(id, db, workload.Repeat(id, workload.Query(q), repeat).Statements)
		tenants[i] = &placement.Tenant{Name: fmt.Sprintf("t%05d", i), Spec: spec}
	}
	return tenants, nil
}

// fleetMix is a splitmix64 finalizer: a seeded index hash with good
// avalanche, so tenant shapes look shuffled but are reproducible.
func fleetMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FigPRow is one fleet size of the placement-scaling figure. It carries
// no wall-clock column: at -quick scale such timings are resolution noise,
// and the incremental speedup is measured by BenchmarkPlacementFleet.
type FigPRow struct {
	Tenants       int     `json:"tenants"`
	Classes       int     `json:"classes"`
	Machines      int     `json:"machines"`
	MachineSolves int     `json:"machine_solves"`
	MemoHits      int     `json:"memo_hits"`
	TotalCost     float64 `json:"total_cost"`
	// ApplyDirty / ApplyMachines describe the incremental arrival applied
	// after the full solve: how many machine shapes one new tenant dirtied
	// versus the machine count it left behind.
	ApplyDirty    int  `json:"apply_dirty"`
	ApplyMachines int  `json:"apply_machines"`
	Verified      bool `json:"verified"`
}

// FigurePlacement runs the fleet-placement scaling experiment: for each
// fleet size, a from-scratch solve (fresh solver and cost model — the
// cold baseline), a Verify pass, and then one incremental tenant arrival
// on the warm state. TotalCost is only reported after Verify re-checks
// every machine against the cost model.
func FigurePlacement(e *workload.Env, sizes []int) ([]FigPRow, error) {
	ctx := context.Background()
	axes := []float64{0.25, 0.5, 0.75, 1.0}
	rows := make([]FigPRow, 0, len(sizes))
	for _, n := range sizes {
		tenants, err := FleetTenants(e, n, 11)
		if err != nil {
			return nil, err
		}
		grid, err := calibration.SyntheticGrid(axes, axes)
		if err != nil {
			return nil, err
		}
		solver, err := placement.NewSolver(placement.Config{
			Parallelism: e.Parallelism,
		}, &core.WhatIfModel{Grid: grid})
		if err != nil {
			return nil, err
		}
		pl, err := solver.Solve(ctx, tenants)
		if err != nil {
			return nil, err
		}
		fullStats := pl.Stats
		fullCost := pl.TotalCost
		if err := pl.Verify(ctx); err != nil {
			return nil, fmt.Errorf("experiments: placement verify (%d tenants): %w", n, err)
		}
		arrival, err := FleetTenants(e, 1, 997)
		if err != nil {
			return nil, err
		}
		arrival[0].Name = "t-new"
		stats, err := pl.Apply(ctx, placement.Event{Type: placement.Arrive, Tenant: arrival[0]})
		if err != nil {
			return nil, err
		}
		rows = append(rows, FigPRow{
			Tenants:       n,
			Classes:       fullStats.Classes,
			Machines:      fullStats.Machines,
			MachineSolves: fullStats.MachineSolves,
			MemoHits:      fullStats.MemoHits,
			TotalCost:     fullCost,
			ApplyDirty:    stats.MachineSolves,
			ApplyMachines: stats.Machines,
			Verified:      true,
		})
	}
	return rows, nil
}

// FormatFigurePlacement renders the placement-scaling figure.
func FormatFigurePlacement(rows []FigPRow) string {
	var b strings.Builder
	b.WriteString("Figure P: fleet placement scaling (cluster -> pack -> per-machine solve)\n")
	b.WriteString("tenants  classes  machines  solves  memo  fleet-cost\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d  %7d  %8d  %6d  %4d  %10.3f\n",
			r.Tenants, r.Classes, r.Machines, r.MachineSolves, r.MemoHits, r.TotalCost)
	}
	return b.String()
}
