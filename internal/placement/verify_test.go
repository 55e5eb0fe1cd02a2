package placement

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"dbvirt/internal/core"
	"dbvirt/internal/vm"
)

// failingModel is stubModel with a switch that makes every call fail.
type failingModel struct {
	stubModel
	fail atomic.Bool
}

func (m *failingModel) Cost(ctx context.Context, w *core.WorkloadSpec, s vm.Shares) (float64, error) {
	if m.fail.Load() {
		m.calls.Add(1)
		return 0, errors.New("model down")
	}
	return m.stubModel.Cost(ctx, w, s)
}

// unverified returns the distinct not-yet-verified solves seated in pl and
// the number of slots they hold (one model call each when verified).
func unverified(pl *Placement) (shapes, slots int) {
	seen := map[*machineSolve]bool{}
	for _, sol := range pl.sols {
		if !seen[sol] && !sol.verified.Load() {
			seen[sol] = true
			shapes++
			slots += len(sol.costs)
		}
	}
	return shapes, slots
}

// TestVerifyOncePerShape: Verify sends a machine shape through the cost
// model the first time any placement seats it and never again, while the
// structural check of every machine against its solve runs on every pass.
func TestVerifyOncePerShape(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	s, model := newTestSolver(t, Config{Parallelism: 2})
	pl, err := s.Solve(ctx, f.tenants(40))
	if err != nil {
		t.Fatal(err)
	}
	verify := func(wantShapes, wantCalls int) {
		t.Helper()
		calls, checks := model.calls.Load(), mVerifyChecks.Value()
		if err := pl.Verify(ctx); err != nil {
			t.Fatalf("verify: %v", err)
		}
		if got := int(mVerifyChecks.Value() - checks); got != wantShapes {
			t.Fatalf("verify evaluated %d shapes, want %d", got, wantShapes)
		}
		if got := int(model.calls.Load() - calls); got != wantCalls {
			t.Fatalf("verify made %d model calls, want %d", got, wantCalls)
		}
	}
	shapes, slots := unverified(pl)
	if shapes == 0 {
		t.Fatal("fresh solve seats no unverified shape")
	}
	verify(shapes, slots)
	verify(0, 0)

	// An Apply that seats k never-seen shapes has exactly those k evaluated.
	for i, ev := range []Event{
		{Type: Arrive, Tenant: &Tenant{Name: "t9000", Spec: f.specs["eps"]}},
		{Type: Drift, Tenant: &Tenant{Name: "t0007", Spec: f.specs["alpha"]}},
		{Type: Leave, Name: "t0001"},
	} {
		if _, err := pl.Apply(ctx, ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		shapes, slots = unverified(pl)
		verify(shapes, slots)
		verify(0, 0)
	}

	// A second placement on the same solver rides the same verified solves.
	pl2, err := s.Solve(ctx, f.tenants(40))
	if err != nil {
		t.Fatal(err)
	}
	if shapes, _ := unverified(pl2); shapes != 0 {
		t.Fatalf("re-solve of a verified fleet seats %d unverified shapes", shapes)
	}
}

// TestVerifyRejectsTampering: the memoized verification vouches for the
// solve, not for the exported seats — every pass still catches a seat or
// total that no longer matches.
func TestVerifyRejectsTampering(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	s, _ := newTestSolver(t, Config{})
	pl, err := s.Solve(ctx, f.tenants(23))
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Verify(ctx); err != nil {
		t.Fatalf("clean verify failed: %v", err)
	}
	// A machine with two differently-priced slots, for the class swap.
	mixed := -1
	for mi, m := range pl.Machines {
		if len(m.Tenants) > 1 && pl.repIDs[m.Tenants[0].Class] != pl.repIDs[m.Tenants[1].Class] {
			mixed = mi
			break
		}
	}
	if mixed < 0 {
		t.Fatal("test fleet has no machine mixing two classes")
	}
	last := len(pl.Machines) - 1
	cases := []struct {
		name   string
		tamper func() (restore func())
	}{
		{"seat cost", func() func() {
			p := &pl.Machines[last].Tenants[0].Cost
			old := *p
			*p = math.Nextafter(old, math.Inf(1))
			return func() { *p = old }
		}},
		{"seat shares", func() func() {
			p := &pl.Machines[0].Tenants[0].Shares
			old := *p
			p.CPU += 0.125
			return func() { *p = old }
		}},
		{"seat class swapped within the machine", func() func() {
			ts := pl.Machines[mixed].Tenants
			ts[0].Class, ts[1].Class = ts[1].Class, ts[0].Class
			return func() { ts[0].Class, ts[1].Class = ts[1].Class, ts[0].Class }
		}},
		{"seat class out of range", func() func() {
			p := &pl.Machines[0].Tenants[0].Class
			old := *p
			*p = len(pl.Classes)
			return func() { *p = old }
		}},
		{"seat dropped", func() func() {
			m := &pl.Machines[mixed]
			old := m.Tenants
			m.Tenants = old[:len(old)-1]
			return func() { m.Tenants = old }
		}},
		{"machine total", func() func() {
			p := &pl.Machines[mixed].TotalCost
			old := *p
			*p = -old
			return func() { *p = old }
		}},
		{"fleet total", func() func() {
			old := pl.TotalCost
			pl.TotalCost = old * (1 + 1e-15)
			return func() { pl.TotalCost = old }
		}},
		{"machine dropped", func() func() {
			old := pl.Machines
			pl.Machines = old[:last]
			return func() { pl.Machines = old }
		}},
	}
	for _, tc := range cases {
		restore := tc.tamper()
		if err := pl.Verify(ctx); err == nil {
			t.Errorf("%s: verify accepted the tampered placement", tc.name)
		}
		restore()
		if err := pl.Verify(ctx); err != nil {
			t.Fatalf("%s: verify rejects the restored placement: %v", tc.name, err)
		}
	}
}

// TestVerifyRetriesFailedShape: a shape whose first verification failed is
// not marked verified, so the next pass sends it through the model again.
func TestVerifyRetriesFailedShape(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	model := &failingModel{}
	s, err := NewSolver(Config{}, model)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := s.Solve(ctx, f.tenants(12))
	if err != nil {
		t.Fatal(err)
	}
	shapes, slots := unverified(pl)
	model.fail.Store(true)
	if err := pl.Verify(ctx); err == nil {
		t.Fatal("verify succeeded against a failing model")
	}
	if got, _ := unverified(pl); got != shapes {
		t.Fatalf("%d of %d shapes marked verified by a failed pass", shapes-got, shapes)
	}
	model.fail.Store(false)
	calls := model.calls.Load()
	if err := pl.Verify(ctx); err != nil {
		t.Fatalf("verify after the model recovered: %v", err)
	}
	if got := int(model.calls.Load() - calls); got != slots {
		t.Fatalf("recovered verify made %d model calls, want %d (every shape re-evaluated)", got, slots)
	}
	if got, _ := unverified(pl); got != 0 {
		t.Fatalf("%d shapes still unverified after a clean pass", got)
	}
}
