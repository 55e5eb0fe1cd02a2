package placement

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"dbvirt/internal/core"
	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
)

// stubModel prices a workload deterministically from its spec name and
// shares: each family has a fixed resource appetite, so solves, probes,
// and clustering are reproducible without a real engine.
type stubModel struct{ calls atomic.Int64 }

func (m *stubModel) Name() string { return "stub" }
func (m *stubModel) Cost(_ context.Context, w *core.WorkloadSpec, s vm.Shares) (float64, error) {
	m.calls.Add(1)
	h := uint64(14695981039346656037)
	for i := 0; i < len(w.Name); i++ {
		h = (h ^ uint64(w.Name[i])) * 1099511628211
	}
	a := float64(h%7+1) / 7 // cpu appetite
	b := float64(h%5+1) / 5 // memory appetite
	c := float64(h%3+1) / 3 // io appetite
	return a/s.CPU + b/s.Memory + c/s.IO, nil
}

// families are the distinct workload shapes of the test fleet; tenants of
// one family share one interned spec pointer, as the server's workload
// registry guarantees.
var familyStatements = map[string][]string{
	"alpha": {"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 2"},
	"beta":  {"SELECT b, c FROM u WHERE b < 10"},
	"gamma": {"SELECT count(*) FROM v GROUP BY g", "SELECT count(*) FROM v GROUP BY h"},
	"delta": {"SELECT x FROM w ORDER BY x"},
	"eps":   {"SELECT y FROM z WHERE y >= 5", "SELECT y FROM z WHERE y >= 6", "SELECT y FROM z WHERE y >= 7"},
}

type fleet struct {
	specs map[string]*core.WorkloadSpec
}

func newFleet() *fleet {
	f := &fleet{specs: make(map[string]*core.WorkloadSpec)}
	for fam, stmts := range familyStatements {
		f.specs[fam] = &core.WorkloadSpec{Name: fam, Statements: stmts, DB: engine.NewDatabase()}
	}
	return f
}

// tenants builds n tenants cycling deterministically over the families.
func (f *fleet) tenants(n int) []*Tenant {
	fams := []string{"alpha", "beta", "gamma", "delta", "eps"}
	out := make([]*Tenant, n)
	for i := range out {
		fam := fams[i%len(fams)]
		out[i] = &Tenant{Name: fmt.Sprintf("t%04d", i), Spec: f.specs[fam]}
	}
	return out
}

func newTestSolver(t *testing.T, cfg Config) (*Solver, *stubModel) {
	t.Helper()
	model := &stubModel{}
	s, err := NewSolver(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	return s, model
}

// view strips a placement to its deterministic exported content.
type view struct {
	Classes   []ClassInfo
	Machines  []Machine
	TotalCost float64
	Order     int
}

func viewOf(pl *Placement) view {
	return view{Classes: pl.Classes, Machines: pl.Machines, TotalCost: pl.TotalCost, Order: pl.Order}
}

func TestSolveBasic(t *testing.T) {
	f := newFleet()
	s, _ := newTestSolver(t, Config{Parallelism: 2})
	pl, err := s.Solve(context.Background(), f.tenants(20))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stats.Tenants != 20 {
		t.Fatalf("tenants = %d, want 20", pl.Stats.Tenants)
	}
	if pl.Stats.Classes < 2 || pl.Stats.Classes > 5 {
		t.Fatalf("classes = %d, want 2..5 for 5 families", pl.Stats.Classes)
	}
	seated := 0
	seen := map[string]bool{}
	for _, m := range pl.Machines {
		if len(m.Tenants) == 0 || len(m.Tenants) > 4 {
			t.Fatalf("machine %d has %d tenants", m.ID, len(m.Tenants))
		}
		var cpu float64
		for _, pt := range m.Tenants {
			if seen[pt.Name] {
				t.Fatalf("tenant %s seated twice", pt.Name)
			}
			seen[pt.Name] = true
			seated++
			cpu += pt.Shares.CPU
			if pt.Cost <= 0 {
				t.Fatalf("tenant %s has non-positive cost", pt.Name)
			}
		}
		if len(m.Tenants) > 1 && cpu > 1+1e-9 {
			t.Fatalf("machine %d CPU shares sum to %v", m.ID, cpu)
		}
	}
	if seated != 20 {
		t.Fatalf("seated %d of 20 tenants", seated)
	}
	if err := pl.Verify(context.Background()); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestPermutationInvariance: the same tenant set in any order yields
// identical classes and an identical placement (the clustering and
// packing pipeline is order-independent by construction).
func TestPermutationInvariance(t *testing.T) {
	f := newFleet()
	base := f.tenants(40)
	s1, _ := newTestSolver(t, Config{})
	pl1, err := s1.Solve(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		perm := append([]*Tenant(nil), base...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		s2, _ := newTestSolver(t, Config{})
		pl2, err := s2.Solve(context.Background(), perm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viewOf(pl1), viewOf(pl2)) {
			t.Fatalf("trial %d: permuted solve diverged:\n%+v\nvs\n%+v", trial, viewOf(pl1), viewOf(pl2))
		}
	}
}

// TestParallelDeterminism: the placement is identical at every worker
// count (the dirty-machine fan-out writes into pre-indexed slots).
func TestParallelDeterminism(t *testing.T) {
	f := newFleet()
	tenants := f.tenants(32)
	var ref view
	for i, par := range []int{1, 4, 16} {
		s, _ := newTestSolver(t, Config{Parallelism: par})
		pl, err := s.Solve(context.Background(), tenants)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = viewOf(pl)
			continue
		}
		if !reflect.DeepEqual(ref, viewOf(pl)) {
			t.Fatalf("parallelism %d diverged from serial", par)
		}
	}
}

// TestIdenticalFeatureMergeProperty: merging tenants whose sketches (and
// cost summaries) are identical never increases the class count — they
// share a feature signature, hence a group, hence a class.
func TestIdenticalFeatureMergeProperty(t *testing.T) {
	f := newFleet()
	rng := rand.New(rand.NewSource(7))
	fams := []string{"alpha", "beta", "gamma", "delta", "eps"}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		tenants := make([]*Tenant, 0, n+1)
		for i := 0; i < n; i++ {
			fam := fams[rng.Intn(len(fams))]
			tenants = append(tenants, &Tenant{Name: fmt.Sprintf("r%03d", i), Spec: f.specs[fam]})
		}
		s1, _ := newTestSolver(t, Config{})
		before, err := s1.Solve(context.Background(), tenants)
		if err != nil {
			t.Fatal(err)
		}
		// Duplicate a random existing tenant's workload under a new name:
		// identical spec ⇒ identical sketch and probe summary.
		dup := tenants[rng.Intn(len(tenants))]
		tenants = append(tenants, &Tenant{Name: "r-dup", Spec: dup.Spec})
		s2, _ := newTestSolver(t, Config{})
		after, err := s2.Solve(context.Background(), tenants)
		if err != nil {
			t.Fatal(err)
		}
		if after.Stats.Classes > before.Stats.Classes {
			t.Fatalf("trial %d: class count grew %d -> %d after duplicating %s",
				trial, before.Stats.Classes, after.Stats.Classes, dup.Name)
		}
		var dupClass, origClass = -1, -1
		for _, c := range after.Classes {
			for _, m := range c.Members {
				if m == "r-dup" {
					dupClass = c.ID
				}
				if m == dup.Name {
					origClass = c.ID
				}
			}
		}
		if dupClass != origClass {
			t.Fatalf("trial %d: identical-sketch tenants in classes %d and %d", trial, dupClass, origClass)
		}
	}
}

// TestApplyBitIdenticalToFreshSolve: a chain of arrive/leave/drift events
// applied incrementally matches a from-scratch solve of the final tenant
// set exactly — same classes, same machines, same shares, same costs.
func TestApplyBitIdenticalToFreshSolve(t *testing.T) {
	f := newFleet()
	tenants := f.tenants(24)
	s, _ := newTestSolver(t, Config{Parallelism: 4})
	pl, err := s.Solve(context.Background(), tenants)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	steps := []Event{
		{Type: Arrive, Tenant: &Tenant{Name: "t9000", Spec: f.specs["alpha"]}},
		{Type: Arrive, Tenant: &Tenant{Name: "t9001", Spec: f.specs["beta"]}},
		{Type: Leave, Name: "t0003"},
		{Type: Drift, Tenant: &Tenant{Name: "t0004", Spec: f.specs["gamma"]}},
		{Type: Leave, Name: "t9000"},
	}
	for i, ev := range steps {
		if _, err := pl.Apply(ctx, ev); err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Type, err)
		}
		// Other fleets solved on the same solver in between (a server keeps
		// one solver across placements) grow its memos and rep ids; they
		// must not leak into pl.
		other, err := s.Solve(ctx, f.tenants(7+5*i))
		if err != nil {
			t.Fatalf("interleaved solve %d: %v", i, err)
		}
		if err := other.Verify(ctx); err != nil {
			t.Fatalf("interleaved solve %d: verify: %v", i, err)
		}
	}

	final := make([]*Tenant, 0, len(tenants))
	for _, tn := range tenants {
		switch tn.Name {
		case "t0003":
			continue
		case "t0004":
			final = append(final, &Tenant{Name: "t0004", Spec: f.specs["gamma"]})
		default:
			final = append(final, tn)
		}
	}
	final = append(final, &Tenant{Name: "t9001", Spec: f.specs["beta"]})

	fresh, _ := newTestSolver(t, Config{Parallelism: 4})
	ref, err := fresh.Solve(ctx, final)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viewOf(ref), viewOf(pl)) {
		t.Fatalf("incremental placement != from-scratch solve:\nincremental %+v\nfresh       %+v",
			viewOf(pl), viewOf(ref))
	}
	if err := pl.Verify(ctx); err != nil {
		t.Fatalf("verify after events: %v", err)
	}
}

// TestEvictedSolvesMatchCached: a Solve and 50 Apply events on a solver
// whose machine-solve memo keeps one solve per generation leave, step by
// step, the placement of a solver that keeps them all — same classes,
// seats, shares, costs and totals, bit for bit.
func TestEvictedSolvesMatchCached(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	fams := []string{"alpha", "beta", "gamma", "delta", "eps"}
	var pls [2]*Placement
	evicted := mSolveEvict.Value()
	for i, bound := range []int{solveGeneration, 1} {
		s, _ := newTestSolver(t, Config{Parallelism: 4})
		s.solves.Cap = bound
		pl, err := s.Solve(ctx, f.tenants(24))
		if err != nil {
			t.Fatal(err)
		}
		pls[i] = pl
	}
	if mSolveEvict.Value() == evicted {
		t.Fatal("a bound of 1 evicted nothing")
	}
	for step := 0; step < 50; step++ {
		var ev Event
		switch name := fmt.Sprintf("t%04d", step/3); step % 3 {
		case 0:
			ev = Event{Type: Arrive, Tenant: &Tenant{Name: fmt.Sprintf("n%04d", step), Spec: f.specs[fams[step%len(fams)]]}}
		case 1:
			ev = Event{Type: Drift, Tenant: &Tenant{Name: name, Spec: f.specs[fams[(step+2)%len(fams)]]}}
		default:
			ev = Event{Type: Leave, Name: name}
		}
		for i, pl := range pls {
			if _, err := pl.Apply(ctx, ev); err != nil {
				t.Fatalf("event %d (%s) on solver %d: %v", step, ev.Type, i, err)
			}
		}
		if !reflect.DeepEqual(viewOf(pls[0]), viewOf(pls[1])) {
			t.Fatalf("after event %d (%s) the evicting solver diverged:\nevicting %+v\ncached   %+v",
				step, ev.Type, viewOf(pls[1]), viewOf(pls[0]))
		}
	}
	if err := pls[1].Verify(ctx); err != nil {
		t.Fatalf("verify on the evicting solver: %v", err)
	}
}

// TestSolveMemoBounded: ten generations' worth of distinct machine shapes
// leave at most two generations in the memo.
func TestSolveMemoBounded(t *testing.T) {
	const bound = 4
	s, _ := newTestSolver(t, Config{})
	s.solves.Cap = bound
	solved := 0
	for i := 0; i < 10*bound; i++ {
		spec := &core.WorkloadSpec{Name: fmt.Sprintf("fam%d", i), Statements: []string{fmt.Sprintf("SELECT c%d FROM t", i)}, DB: engine.NewDatabase()}
		pl, err := s.Solve(context.Background(), []*Tenant{{Name: "only", Spec: spec}})
		if err != nil {
			t.Fatal(err)
		}
		solved += pl.Stats.MachineSolves
	}
	if solved != 10*bound {
		t.Fatalf("%d machine solves, want %d distinct shapes", solved, 10*bound)
	}
	if n := s.solves.Len(); n > 2*bound || float64(n) != gSolveEntries.Value() {
		t.Fatalf("memo holds %d solves (placement.solves.entries %v), want at most %d", n, gSolveEntries.Value(), 2*bound)
	}
}

// TestApplyDirtyBounded: one arrival into a large warm fleet re-solves
// only a bounded set of machine shapes (the spill around the insertion
// point), not the fleet.
func TestApplyDirtyBounded(t *testing.T) {
	f := newFleet()
	s, _ := newTestSolver(t, Config{})
	pl, err := s.Solve(context.Background(), f.tenants(200))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.Apply(context.Background(),
		Event{Type: Arrive, Tenant: &Tenant{Name: "t9999", Spec: f.specs["delta"]}})
	if err != nil {
		t.Fatal(err)
	}
	// The spill is bounded by the pack-boundary shapes each order can
	// invent — O(classes * orders) — and must stay far below the fleet
	// size (50 machines here; a full cold solve prices every shape).
	bound := pl.Stats.Classes*pl.Stats.Orders + 2
	if stats.MachineSolves > bound {
		t.Fatalf("arrival dirtied %d machine shapes, want <= %d (classes*orders+2)", stats.MachineSolves, bound)
	}
	if stats.MachineSolves >= stats.Machines/2 {
		t.Fatalf("arrival dirtied %d shapes for %d machines; not incremental", stats.MachineSolves, stats.Machines)
	}
	if stats.ReusedMachines < stats.Machines*3/4 {
		t.Fatalf("only %d of %d machines reused after one arrival", stats.ReusedMachines, stats.Machines)
	}
}

// TestCapacityPacking: CPU-demand capacity splits the fleet across more
// machines, and no machine exceeds its caps (except a lone tenant that
// cannot fit anywhere).
func TestCapacityPacking(t *testing.T) {
	f := newFleet()
	probeDemand := func(s *Solver, spec *core.WorkloadSpec) [3]float64 {
		f, err := s.buildFeature(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return f.demand
	}
	uncapped, _ := newTestSolver(t, Config{})
	plFree, err := uncapped.Solve(context.Background(), f.tenants(40))
	if err != nil {
		t.Fatal(err)
	}
	caps := MachineCaps{CPU: 4.0, MaxTenants: 4}
	capped, _ := newTestSolver(t, Config{Machine: caps})
	pl, err := capped.Solve(context.Background(), f.tenants(40))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Machines) < len(plFree.Machines) {
		t.Fatalf("capped fleet uses fewer machines (%d) than uncapped (%d)",
			len(pl.Machines), len(plFree.Machines))
	}
	for _, m := range pl.Machines {
		if len(m.Tenants) > caps.MaxTenants {
			t.Fatalf("machine %d holds %d tenants > cap %d", m.ID, len(m.Tenants), caps.MaxTenants)
		}
		if len(m.Tenants) == 1 {
			continue
		}
		var cpu float64
		for _, pt := range m.Tenants {
			spec := pl.reps[pt.Class]
			cpu += probeDemand(capped, spec)[0]
		}
		if cpu > caps.CPU+1e-9 {
			t.Fatalf("machine %d CPU demand %v exceeds cap %v", m.ID, cpu, caps.CPU)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	f := newFleet()
	s, _ := newTestSolver(t, Config{})
	pl, err := s.Solve(context.Background(), f.tenants(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Verify(context.Background()); err != nil {
		t.Fatalf("clean verify failed: %v", err)
	}
	pl.Machines[0].Tenants[0].Cost *= 1.5
	if err := pl.Verify(context.Background()); err == nil {
		t.Fatal("verify accepted a corrupted per-tenant cost")
	}
}

func TestEventValidation(t *testing.T) {
	f := newFleet()
	s, _ := newTestSolver(t, Config{})
	pl, err := s.Solve(context.Background(), f.tenants(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bad := []Event{
		{Type: Arrive, Tenant: &Tenant{Name: "t0001", Spec: f.specs["alpha"]}}, // duplicate
		{Type: Arrive, Tenant: nil},
		{Type: Leave, Name: "nope"},
		{Type: Drift, Tenant: &Tenant{Name: "nope", Spec: f.specs["alpha"]}},
		{Type: EventType(99)},
	}
	before := viewOf(pl)
	for i, ev := range bad {
		_, err := pl.Apply(ctx, ev)
		if err == nil {
			t.Fatalf("case %d: bad event accepted", i)
		}
		if !IsEventError(err) {
			t.Fatalf("case %d: error %v not marked as event error", i, err)
		}
		if !reflect.DeepEqual(before, viewOf(pl)) {
			t.Fatalf("case %d: failed event mutated the placement", i)
		}
	}
	// Emptying the fleet is rejected too.
	evs := make([]Event, 0, 4)
	for _, t := range pl.ts {
		evs = append(evs, Event{Type: Leave, Name: t.Name})
	}
	if _, err := pl.Apply(ctx, evs...); err == nil {
		t.Fatal("emptying the fleet was accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	model := &stubModel{}
	bad := []Config{
		{Threshold: 1.5},
		{Algo: "magic"},
		{Orders: -1},
		{Step: 0.3}, // doesn't divide 1
		{Step: 0.5, Machine: MachineCaps{MaxTenants: 4}}, // 4 * 0.5 > 1
		{Machine: MachineCaps{CPU: -1}},
	}
	for i, cfg := range bad {
		if _, err := NewSolver(cfg, model); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
	if _, err := NewSolver(Config{}, nil); err == nil {
		t.Error("nil model accepted")
	}
}

func TestNormalizeReuseCounter(t *testing.T) {
	f := newFleet()
	s, _ := newTestSolver(t, Config{Parallelism: 1})
	before := mNormalizeReused.Value()
	if _, err := s.Solve(context.Background(), f.tenants(25)); err != nil {
		t.Fatal(err)
	}
	// 25 tenants over 5 interned specs: 5 sketch builds, 20 memo reuses.
	if got := mNormalizeReused.Value() - before; got != 20 {
		t.Fatalf("placement.normalize.reused grew by %d, want 20", got)
	}
}
