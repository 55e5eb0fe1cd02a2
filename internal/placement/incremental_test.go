package placement

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dbvirt/internal/core"
	"dbvirt/internal/engine"
)

// twinTenant is a tenant on a twin of spec: the same statements under one
// of a few other names, on a spec of its own. The stub model prices by
// name, so twins share a sketch and differ in cost; a stream of them
// repeats signatures (distinct features, equal content) and lands
// near-identical ones within a merging threshold.
func twinTenant(rng *rand.Rand, name string, spec *core.WorkloadSpec) *Tenant {
	twin := &core.WorkloadSpec{Name: fmt.Sprintf("%s'%d", spec.Name, rng.Intn(3)), Statements: spec.Statements, DB: spec.DB}
	return &Tenant{Name: name, Spec: twin}
}

// placementJSON is the placement's wire encoding with its stats replaced
// by st: the memo counters in them depend on what the solver priced
// before, the rest of the encoding must not.
func placementJSON(t *testing.T, pl *Placement, st SolveStats) []byte {
	t.Helper()
	c := *pl
	c.Stats = st
	b, err := c.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestApplyMatchesFreshSolveProperty: seeded random event streams — single
// events and batches, among them arrive-then-leave and arrive-then-drift
// of one name in one batch, drifts that change only a tenant's price, and
// batches an invalid last event rejects — leave after every step exactly
// the classes, machines, seats and wire bytes a fresh solver computes for
// the same tenant set. The configurations cover capacity caps on every
// resource (the capped first-fit branch), one and three tenants per
// machine, one and five packing orders and a threshold that merges
// distinct features; the fleets mix tenants on the family specs with
// tenants on twins of them. A second
// placement, on a solver whose every table keeps one entry a generation,
// takes the same events and must match too: eviction only recomputes.
func TestApplyMatchesFreshSolveProperty(t *testing.T) {
	ctx := context.Background()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"capped", Config{Machine: MachineCaps{CPU: 7, Memory: 6, IO: 6, MaxTenants: 4}}},
		{"solo", Config{Machine: MachineCaps{MaxTenants: 1}}},
		{"three-per-machine-five-orders", Config{Machine: MachineCaps{MaxTenants: 3}, Orders: 5}},
		{"one-order", Config{Orders: 1}},
		// Cost distances here are ratios of small integers; a threshold
		// that is none keeps float rounding off the boundary.
		{"merging", Config{Threshold: 0.4321}},
	}
	fams := []string{"alpha", "beta", "gamma", "delta", "eps"}
	for ci, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet()
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			born := 0
			newTenant := func() *Tenant {
				born++
				name := fmt.Sprintf("n%03d", born)
				spec := f.specs[fams[rng.Intn(len(fams))]]
				if rng.Intn(3) == 0 {
					return twinTenant(rng, name, spec)
				}
				return &Tenant{Name: name, Spec: spec}
			}
			live := map[string]*Tenant{}
			for i := 0; i < 16; i++ {
				tn := newTenant()
				live[tn.Name] = tn
			}
			pick := func(m map[string]*Tenant) string {
				names := make([]string, 0, len(m))
				for n := range m {
					names = append(names, n)
				}
				slices.Sort(names) // map order is random: sort for a seeded pick
				return names[rng.Intn(len(names))]
			}
			fleetOf := func(m map[string]*Tenant) []*Tenant {
				out := make([]*Tenant, 0, len(m))
				for _, tn := range m {
					out = append(out, tn)
				}
				return out
			}
			s, _ := newTestSolver(t, tc.cfg)
			pl, err := s.Solve(ctx, fleetOf(live))
			if err != nil {
				t.Fatal(err)
			}
			es, _ := newTestSolver(t, tc.cfg)
			es.feats.Cap, es.dists.Cap, es.repIDs.Cap, es.solves.Cap = 1, 1, 1, 1
			tight, err := es.Solve(ctx, fleetOf(live))
			if err != nil {
				t.Fatal(err)
			}
			capSplits := false
			for step := 0; step < 40; step++ {
				var evs []Event
				next := map[string]*Tenant{}
				for n, tn := range live {
					next[n] = tn
				}
				for len(evs) < 1+rng.Intn(3) {
					switch r := rng.Intn(6); {
					case r == 0 || len(next) < 6:
						tn := newTenant()
						evs = append(evs, Event{Type: Arrive, Tenant: tn})
						next[tn.Name] = tn
					case r == 1:
						if len(next) <= 6 {
							continue
						}
						name := pick(next)
						evs = append(evs, Event{Type: Leave, Name: name})
						delete(next, name)
					case r == 2:
						name := pick(next)
						old := next[name]
						var tn *Tenant
						if rng.Intn(2) == 0 {
							// The price alone drifts: same statements, a twin's name.
							tn = twinTenant(rng, name, old.Spec)
						} else {
							tn = newTenant()
							tn.Name = name
						}
						evs = append(evs, Event{Type: Drift, Tenant: tn})
						next[name] = tn
					case r == 3:
						tn := newTenant()
						evs = append(evs, Event{Type: Arrive, Tenant: tn}, Event{Type: Leave, Name: tn.Name})
					case r == 4:
						tn, drifted := newTenant(), newTenant()
						drifted.Name = tn.Name
						evs = append(evs, Event{Type: Arrive, Tenant: tn}, Event{Type: Drift, Tenant: drifted})
						next[tn.Name] = drifted
					default:
						evs = append(evs, Event{Type: Arrive, Tenant: newTenant()})
						evs[len(evs)-1].Tenant.Name = pick(next)
						next = nil // a duplicate arrival: the batch fails
					}
					if next == nil {
						break
					}
				}
				if next == nil {
					before, wire := viewOf(pl), placementJSON(t, pl, pl.Stats)
					if _, err := pl.Apply(ctx, evs...); err == nil || !IsEventError(err) {
						t.Fatalf("step %d: batch ending in a duplicate arrival: err %v", step, err)
					}
					if !reflect.DeepEqual(before, viewOf(pl)) || !bytes.Equal(wire, placementJSON(t, pl, pl.Stats)) {
						t.Fatalf("step %d: a rejected batch changed the placement", step)
					}
					continue
				}
				if _, err := pl.Apply(ctx, evs...); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if _, err := tight.Apply(ctx, evs...); err != nil {
					t.Fatalf("step %d on the evicting solver: %v", step, err)
				}
				live = next
				fresh, _ := newTestSolver(t, tc.cfg)
				ref, err := fresh.Solve(ctx, fleetOf(live))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(viewOf(ref), viewOf(pl)) {
					t.Fatalf("step %d (%d events): incremental placement != fresh solve:\nincremental %+v\nfresh       %+v",
						step, len(evs), viewOf(pl), viewOf(ref))
				}
				if !bytes.Equal(placementJSON(t, ref, ref.Stats), placementJSON(t, pl, ref.Stats)) {
					t.Fatalf("step %d: wire bytes differ from a fresh solve's", step)
				}
				if !bytes.Equal(placementJSON(t, ref, ref.Stats), placementJSON(t, tight, ref.Stats)) {
					t.Fatalf("step %d: the evicting solver's placement differs from a fresh solve's", step)
				}
				got, want := pl.Stats, ref.Stats
				got.MachineSolves, got.MemoHits, got.ReusedMachines = want.MachineSolves, want.MemoHits, want.ReusedMachines
				if got != want {
					t.Fatalf("step %d: stats %+v, a fresh solve's %+v", step, pl.Stats, ref.Stats)
				}
				if err := pl.Verify(ctx); err != nil {
					t.Fatalf("step %d: verify: %v", step, err)
				}
				k := pl.solver.cfg.Machine.MaxTenants
				if len(pl.Machines) > (len(live)+k-1)/k {
					capSplits = true
				}
			}
			if tc.cfg.Machine.CPU > 0 && !capSplits {
				t.Fatal("the capacity caps never split a machine: the capped branch went untested")
			}
		})
	}
}

// TestMergingThresholdMergesDistinctFeatures: the merging configuration of
// the property test does merge tenants whose features differ, so its
// clustering is not the identity on groups.
func TestMergingThresholdMergesDistinctFeatures(t *testing.T) {
	f := newFleet()
	fams := []string{"alpha", "beta", "gamma", "delta", "eps"}
	rng := rand.New(rand.NewSource(5))
	var tenants []*Tenant
	for i := 0; i < 24; i++ {
		tenants = append(tenants, twinTenant(rng, fmt.Sprintf("o%02d", i), f.specs[fams[i%len(fams)]]))
	}
	s, _ := newTestSolver(t, Config{Threshold: 0.4321})
	pl, err := s.Solve(context.Background(), tenants)
	if err != nil {
		t.Fatal(err)
	}
	if groups := len(pl.fs); pl.Stats.Classes >= groups {
		t.Fatalf("%d classes for %d feature groups: nothing merged", pl.Stats.Classes, groups)
	}
}

// TestSolverTablesBounded: a stream of fresh tenants — most carrying
// twin specs, each on a spec never seen before — turns every
// solver-lifetime table over many times and leaves each at most two
// generations.
func TestSolverTablesBounded(t *testing.T) {
	const bound = 4
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	s, _ := newTestSolver(t, Config{})
	s.feats.Cap, s.dists.Cap, s.repIDs.Cap, s.solves.Cap = bound, bound, bound, bound
	tables := func() map[string]int {
		return map[string]int{
			"feats": s.feats.Len(), "dists": s.dists.Len(), "repIDs": s.repIDs.Len(), "solves": s.solves.Len(),
		}
	}
	fresh := func(i int) *Tenant {
		spec := &core.WorkloadSpec{Name: fmt.Sprintf("fam%d", i), Statements: []string{fmt.Sprintf("SELECT c%d FROM t", i)}, DB: engine.NewDatabase()}
		if i%4 == 0 {
			return &Tenant{Name: fmt.Sprintf("f%04d", i), Spec: spec}
		}
		return twinTenant(rng, fmt.Sprintf("f%04d", i), spec)
	}
	var names []string
	var tenants []*Tenant
	for i := 0; i < 6; i++ {
		tn := fresh(i)
		tenants = append(tenants, tn)
		names = append(names, tn.Name)
	}
	pl, err := s.Solve(ctx, tenants)
	if err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 6+20*bound; i++ {
		tn := fresh(i)
		if _, err := pl.Apply(ctx, Event{Type: Arrive, Tenant: tn}, Event{Type: Leave, Name: names[0]}); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		names = append(names[1:], tn.Name)
		for name, n := range tables() {
			if n > 2*bound {
				t.Fatalf("after event %d the %s table holds %d entries, want at most %d", i, name, n, 2*bound)
			}
		}
	}
	if s.nextRepID <= 2*bound {
		t.Fatalf("only %d rep ids interned: the stream never turned the tables over", s.nextRepID)
	}
	if err := pl.Verify(ctx); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestApplyAllocsBounded pins a single-event Apply on a warm 1000-tenant
// fleet at a small constant number of allocations: every per-pass array
// lives in the placement's recycled buffers, so what is left is the
// arrival's quoted name and the returned stats. It was 36 when each pass
// allocated its arrays afresh, and 1654 when every event re-derived the
// fleet's features, groups, packings and string machine keys.
func TestApplyAllocsBounded(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	s, _ := newTestSolver(t, Config{})
	pl, err := s.Solve(ctx, f.tenants(1000))
	if err != nil {
		t.Fatal(err)
	}
	arrive := Event{Type: Arrive, Tenant: &Tenant{Name: "t-extra", Spec: f.specs["delta"]}}
	leave := Event{Type: Leave, Name: "t-extra"}
	// AllocsPerRun runs the pair once unmeasured, which prices the few
	// shapes the arrival creates; the measured runs are memo hits.
	perPair := testing.AllocsPerRun(20, func() {
		if _, err := pl.Apply(ctx, arrive); err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Apply(ctx, leave); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per event", perPair/2)
	if perEvent := perPair / 2; perEvent > 8 {
		t.Fatalf("a single-event Apply on 1000 tenants allocates %.1f times, want at most 8", perEvent)
	}
}

// TestApplyRecyclesBuffers: Apply alternates between a placement's two
// buffer sets. Successful single- and multi-event batches — among them a
// batch that grows the fleet past every buffer's capacity and arrivals
// whose names need escaping — are interleaved with rejected ones, some of
// which patch the spare set before reaching their bad event. After every
// success the wire bytes equal a fresh solve's of the same tenant set and
// the old buffers are the spare; a rejected batch leaves the bytes and
// the live buffers as they were.
func TestApplyRecyclesBuffers(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	live := map[string]*Tenant{}
	for _, tn := range f.tenants(30) {
		live[tn.Name] = tn
	}
	arrive := func(name, fam string) Event {
		return Event{Type: Arrive, Tenant: &Tenant{Name: name, Spec: f.specs[fam]}}
	}
	drift := func(name, fam string) Event {
		return Event{Type: Drift, Tenant: &Tenant{Name: name, Spec: f.specs[fam]}}
	}
	leave := func(name string) Event { return Event{Type: Leave, Name: name} }
	var grow []Event
	for i := 0; i < 25; i++ {
		grow = append(grow, arrive(fmt.Sprintf("g%02d", i), []string{"alpha", "beta", "gamma", "delta", "eps"}[i%5]))
	}
	steps := []struct {
		evs []Event
		ok  bool
	}{
		{[]Event{arrive("x01", "alpha")}, true},
		{[]Event{leave("nobody")}, false},
		{[]Event{arrive(`x02 "quoted" <&>`, "beta"), leave("t0003"), drift("t0005", "gamma")}, true},
		{[]Event{arrive("x03", "delta"), arrive("x01", "eps")}, false},
		{[]Event{leave("x01")}, true},
		{[]Event{leave("t0007"), drift("t0008", "eps"), leave("nobody")}, false},
		{grow, true},
		{[]Event{drift("t0010", "beta")}, true},
		{[]Event{arrive("g03", "beta")}, false},
		{[]Event{leave(`x02 "quoted" <&>`), leave("g04"), arrive("x04\u2028", "gamma")}, true},
		{[]Event{arrive("x05", "alpha")}, true},
	}
	fleetOf := func() []*Tenant {
		out := make([]*Tenant, 0, len(live))
		for _, tn := range live {
			out = append(out, tn)
		}
		return out
	}
	s, _ := newTestSolver(t, Config{})
	pl, err := s.Solve(ctx, fleetOf())
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range steps {
		before, bufs := placementJSON(t, pl, pl.Stats), pl.bufs
		_, err := pl.Apply(ctx, st.evs...)
		if !st.ok {
			if !IsEventError(err) {
				t.Fatalf("step %d: want an event error, got %v", i, err)
			}
			if !bytes.Equal(before, placementJSON(t, pl, pl.Stats)) || pl.bufs != bufs {
				t.Fatalf("step %d: a rejected batch changed the placement", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if pl.spare != bufs || pl.bufs == bufs {
			t.Fatalf("step %d: the pass did not swap buffer sets", i)
		}
		for _, ev := range st.evs {
			if ev.Type == Leave {
				delete(live, ev.Name)
			} else {
				live[ev.Tenant.Name] = ev.Tenant
			}
		}
		fresh, _ := newTestSolver(t, Config{})
		ref, err := fresh.Solve(ctx, fleetOf())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(placementJSON(t, ref, ref.Stats), placementJSON(t, pl, ref.Stats)) {
			t.Fatalf("step %d: wire bytes differ from a fresh solve's", i)
		}
		assertWireEqual(t, fmt.Sprintf("step %d", i), pl)
		if err := pl.Verify(ctx); err != nil {
			t.Fatalf("step %d: verify: %v", i, err)
		}
	}
}

// TestThresholdDefault: a zero threshold means the server's documented
// default of 0.1, not "identical features only".
func TestThresholdDefault(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{{0, 0.1}, {0.05, 0.05}} {
		if got := (Config{Threshold: tc.in}).withDefaults().Threshold; got != tc.want {
			t.Errorf("threshold %v defaults to %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestEqualContentArrivalKeepsClasses: an arrival whose spec equals a
// fleet spec in content but is another pointer, and whose name sorts
// first in its group, brings a new feature pointer with a known
// signature. The pass keeps its classes — placement.recluster.count does
// not move — and the placement still equals a fresh solve's.
func TestEqualContentArrivalKeepsClasses(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	s, _ := newTestSolver(t, Config{Parallelism: 1})
	pl, err := s.Solve(ctx, f.tenants(30))
	if err != nil {
		t.Fatal(err)
	}
	alpha := f.specs["alpha"]
	twin := &core.WorkloadSpec{Name: alpha.Name, Statements: slices.Clone(alpha.Statements), DB: alpha.DB}
	before := mRecluster.Value()
	if _, err := pl.Apply(ctx, Event{Type: Arrive, Tenant: &Tenant{Name: "a-first", Spec: twin}}); err != nil {
		t.Fatal(err)
	}
	if got := mRecluster.Value() - before; got != 0 {
		t.Fatalf("an equal-content arrival re-clustered the fleet %d times", got)
	}
	cold, _ := newTestSolver(t, Config{Parallelism: 1})
	fresh, err := cold.Solve(ctx, append(f.tenants(30), &Tenant{Name: "a-first", Spec: twin}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(placementJSON(t, pl, SolveStats{}), placementJSON(t, fresh, SolveStats{})) {
		t.Fatal("the placement after the arrival differs from a fresh solve")
	}
}
