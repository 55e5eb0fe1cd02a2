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
	"dbvirt/internal/telemetry"
)

// observedTenant is a tenant carrying telemetry. Its sketch draws a few
// statement keys from a small shared pool and its cost summary, when it
// has one, from a few levels, so a stream of them repeats signatures
// (distinct features, equal content) and lands near-identical ones within
// a merging threshold.
func observedTenant(rng *rand.Rand, name string, spec *core.WorkloadSpec) *Tenant {
	t := &Tenant{Name: name, Spec: spec, Sketch: observedSketch(rng)}
	if rng.Intn(2) == 0 {
		t.CostSummary = []float64{1 + 0.25*float64(rng.Intn(3)), 2, 3}
	}
	return t
}

func observedSketch(rng *rand.Rand) *telemetry.TopK {
	sk := telemetry.NewTopK(8)
	for j := 0; j < 3; j++ {
		sk.Update(fmt.Sprintf("SELECT q%d FROM t", rng.Intn(3)), int64(1+rng.Intn(2)))
	}
	return sk
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
// of one name in one batch, drifts that change only a tenant's sketch, and
// batches an invalid last event rejects — leave after every step exactly
// the classes, machines, seats and wire bytes a fresh solver computes for
// the same tenant set. The configurations cover capacity caps on every
// resource (the capped first-fit branch), one and three tenants per
// machine, one and five packing orders and a threshold that merges
// distinct features; the fleets mix tenants featurized from their specs
// with tenants carrying observed sketches and cost summaries. A second
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
		// Sketch and cost distances here are ratios of small integers; a
		// threshold that is none keeps float rounding off the boundary.
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
					return observedTenant(rng, name, spec)
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
			es.sketches.Cap, es.probes.Cap, es.feats.Cap = 1, 1, 1
			es.dists.Cap, es.repIDs.Cap, es.solves.Cap = 1, 1, 1
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
						if old.Sketch != nil && rng.Intn(2) == 0 {
							// The sketch alone drifts: same spec, same summary.
							tn = &Tenant{Name: name, Spec: old.Spec, Sketch: observedSketch(rng), CostSummary: old.CostSummary}
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
	rng := rand.New(rand.NewSource(5))
	var tenants []*Tenant
	for i := 0; i < 24; i++ {
		tenants = append(tenants, observedTenant(rng, fmt.Sprintf("o%02d", i), f.specs["alpha"]))
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
// observed sketches, each on a spec never seen before — turns every
// solver-lifetime table over many times and leaves each at most two
// generations.
func TestSolverTablesBounded(t *testing.T) {
	const bound = 4
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	s, _ := newTestSolver(t, Config{})
	s.sketches.Cap, s.probes.Cap, s.feats.Cap = bound, bound, bound
	s.dists.Cap, s.repIDs.Cap, s.solves.Cap = bound, bound, bound
	tables := func() map[string]int {
		return map[string]int{
			"sketches": s.sketches.Len(), "probes": s.probes.Len(), "feats": s.feats.Len(),
			"dists": s.dists.Len(), "repIDs": s.repIDs.Len(), "solves": s.solves.Len(),
		}
	}
	fresh := func(i int) *Tenant {
		spec := &core.WorkloadSpec{Name: fmt.Sprintf("fam%d", i), Statements: []string{fmt.Sprintf("SELECT c%d FROM t", i)}, DB: engine.NewDatabase()}
		if i%4 == 0 {
			return &Tenant{Name: fmt.Sprintf("f%04d", i), Spec: spec}
		}
		return observedTenant(rng, fmt.Sprintf("f%04d", i), spec)
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
// fleet at a fixed number of flat per-pass arrays: no allocation per
// tenant or per machine (it was 1654 when every event re-derived the
// fleet's features, groups, packings and string machine keys).
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
	if perEvent := perPair / 2; perEvent > 100 {
		t.Fatalf("a single-event Apply on 1000 tenants allocates %.0f times, want at most 100", perEvent)
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
