package autotune

// Loop-level unit tests: trigger plumbing, decision-log bounds, status
// accounting, spec derivation from sketches, and the acceptance-bar
// assertion that steady-state ticks are memo-dominated (the what-if
// model's cost atoms, not the optimizer, absorb them).

import (
	"context"
	"sync"
	"testing"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/engine"
	"dbvirt/internal/obs"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
)

// calmDecider reacts fast — for tests that want actuations promptly.
func calmDecider() DeciderConfig {
	return DeciderConfig{MinGain: 0.05, ConfirmTicks: 2, CooldownTicks: 3, MaxStepDelta: 0.25}
}

func TestNewLoopValidation(t *testing.T) {
	hub := telemetry.NewHub(telemetry.Config{})
	model := &synthModel{}
	db := engine.NewDatabase()
	good := func() Config {
		machine := vm.MustMachine(vm.DefaultMachineConfig())
		var vms []*vm.VM
		for i, n := range []string{"a", "b"} {
			v, err := machine.NewVM(n, core.EqualAllocation(2)[i])
			if err != nil {
				t.Fatal(err)
			}
			vms = append(vms, v)
		}
		return Config{
			Hub:   hub,
			Model: model,
			VMs:   vms,
			Tenants: []ManagedTenant{
				{Name: "a", DB: db, Fallback: []string{stmtScan}},
				{Name: "b", DB: db, Fallback: []string{stmtScan}},
			},
		}
	}
	if _, err := NewLoop(good()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*Config){
		"nil hub":        func(c *Config) { c.Hub = nil },
		"nil model":      func(c *Config) { c.Model = nil },
		"one tenant":     func(c *Config) { c.Tenants = c.Tenants[:1] },
		"vm mismatch":    func(c *Config) { c.VMs = c.VMs[:1] },
		"unnamed tenant": func(c *Config) { c.Tenants[0].Name = "" },
		"nil db":         func(c *Config) { c.Tenants[1].DB = nil },
		"no fallback":    func(c *Config) { c.Tenants[0].Fallback = nil },
	} {
		cfg := good()
		breakIt(&cfg)
		if _, err := NewLoop(cfg); err == nil {
			t.Errorf("%s: config accepted, want error", name)
		}
	}
}

func TestLoopDisabledSkipsWhole(t *testing.T) {
	r := newRig(t, nil, 16, calmDecider())
	r.loop.Disable()
	ctx := context.Background()
	d := r.step(ctx)
	if d.Action != ActionSkipped || d.Reason != "disabled" {
		t.Fatalf("disabled tick: %+v", d)
	}
	st := r.loop.Status()
	if st.Resolves != 0 || st.Ticks != 1 {
		t.Fatalf("disabled loop resolved: %+v", st)
	}
	r.loop.Enable()
	if d := r.loop.Trigger(ctx); d.Action == ActionSkipped {
		t.Fatalf("enabled trigger skipped: %+v", d)
	}
}

func TestResolveCadence(t *testing.T) {
	r := newRig(t, nil, 16, calmDecider())
	r.loop.cfg.ResolveEvery = 3
	ctx := context.Background()
	var actions []string
	var triggers []string
	for i := 0; i < 6; i++ {
		d := r.step(ctx)
		actions = append(actions, d.Action)
		triggers = append(triggers, d.Trigger)
	}
	want := []string{ActionSkipped, ActionSkipped, ActionSuppressed, ActionSkipped, ActionSkipped, ActionSuppressed}
	for i := range want {
		if actions[i] != want[i] {
			t.Fatalf("tick %d action = %s (trigger %q), want %s; all: %v", i+1, actions[i], triggers[i], want[i], actions)
		}
	}
	if triggers[2] != TriggerPeriodic {
		t.Fatalf("tick 3 trigger = %q, want periodic", triggers[2])
	}
}

// TestLoopShiftActuatesAndFeedsBack is the clean-model end-to-end:
// symmetric traffic holds the equal split, a genuine shift actuates
// within the hysteresis budget, the decision log and the VMs' shares
// agree on it, and the next resolve reports a positive realized gain.
func TestLoopShiftActuatesAndFeedsBack(t *testing.T) {
	r := newRig(t, nil, 16, calmDecider())
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		r.feed("t1", stationaryMix)
		r.feed("t2", stationaryMix)
		if d := r.step(ctx); d.Action == ActionApplied {
			t.Fatalf("symmetric traffic actuated at tick %d: %+v", i+1, d)
		}
	}

	hungry := []feedEntry{{stmtHungry, 16}}
	var applied *Decision
	for i := 0; i < 10 && applied == nil; i++ {
		r.feed("t1", hungry)
		r.feed("t2", stationaryMix)
		if d := r.step(ctx); d.Action == ActionApplied {
			applied = &d
		}
	}
	if applied == nil {
		t.Fatalf("shift never actuated; status: %+v", r.loop.Status())
	}
	if applied.Trigger != TriggerDrift && applied.Trigger != TriggerPeriodic {
		t.Fatalf("unexpected trigger %q", applied.Trigger)
	}
	if applied.Gain <= calmDecider().MinGain {
		t.Fatalf("applied gain %g below threshold", applied.Gain)
	}
	if len(applied.Applied) != 2 || applied.Applied[0].CPU <= 0.5 {
		t.Fatalf("applied allocation %+v does not favor the hungry tenant", applied.Applied)
	}
	st := r.loop.Status()
	var logged int
	for _, d := range st.Decisions {
		if d.Action == ActionApplied {
			logged++
		}
	}
	if logged != 1 || st.Actuations != 1 {
		t.Fatalf("%d applied decisions logged, %d actuations counted; want one of each", logged, st.Actuations)
	}
	for i, v := range r.vms {
		if got := v.Shares(); got != applied.Applied[i] {
			t.Fatalf("VM %d shares %+v != applied %+v", i, got, applied.Applied[i])
		}
	}

	// The resolve after an actuation prices the replaced allocation under
	// the current mix: realized gain must come back positive.
	r.feed("t1", hungry)
	r.feed("t2", stationaryMix)
	next := r.step(ctx)
	if next.RealizedGain == nil {
		t.Fatalf("no realized gain on post-actuation resolve: %+v", next)
	}
	if *next.RealizedGain <= 0 {
		t.Fatalf("realized gain %g, want positive (the shift was real)", *next.RealizedGain)
	}
}

// TestLoopConcurrentTicks runs scheduled and forced ticks from several
// goroutines while a reader polls Status: ticks serialize under the
// loop's mutex, so every actuation is one whole share transition and the
// VMs end on the target of the last applied decision.
func TestLoopConcurrentTicks(t *testing.T) {
	r := newRig(t, nil, 16, calmDecider())
	r.feed("t1", []feedEntry{{stmtHungry, 16}})
	r.feed("t2", stationaryMix)
	ctx := context.Background()
	var (
		mu        sync.Mutex
		decisions []Decision
		wg        sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tick := r.loop.Tick
				if (g+i)%2 == 0 {
					tick = r.loop.Trigger
				}
				d := tick(ctx)
				mu.Lock()
				decisions = append(decisions, d)
				mu.Unlock()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			r.loop.Status()
		}
	}()
	wg.Wait()
	<-done

	var last *Decision
	for i := range decisions {
		if d := &decisions[i]; d.Action == ActionApplied && (last == nil || d.Tick > last.Tick) {
			last = d
		}
	}
	if last == nil {
		t.Fatalf("no tick actuated; status: %+v", r.loop.Status())
	}
	for i, v := range r.vms {
		if got := v.Shares(); got != last.Applied[i] {
			t.Fatalf("VM %d shares %+v, last applied (tick %d) %+v", i, got, last.Tick, last.Applied[i])
		}
	}
}

func TestDecisionLogBounded(t *testing.T) {
	r := newRig(t, nil, 16, calmDecider())
	r.loop.logSize = 8
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		r.step(ctx)
	}
	st := r.loop.Status()
	if len(st.Decisions) != 8 {
		t.Fatalf("log has %d entries, want 8", len(st.Decisions))
	}
	for i, d := range st.Decisions {
		if want := int64(18 + i); d.Tick != want {
			t.Fatalf("log entry %d has tick %d, want %d (oldest-first, most recent kept)", i, d.Tick, want)
		}
	}
}

// TestSteadyStateTicksAreMemoDominated is the acceptance-bar assertion:
// with a stable mix, the derived specs intern to the same pointers and
// the what-if model's cost atoms answer every pricing after warmup —
// core.atom.miss (statements the optimizer priced) plateaus while
// core.atom.hit keeps growing.
func TestSteadyStateTicksAreMemoDominated(t *testing.T) {
	axes := []float64{0.25, 0.5, 0.75, 1.0}
	grid, err := calibration.SyntheticGrid(axes, axes)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, &core.WhatIfModel{Grid: grid}, 16, calmDecider())
	ctx := context.Background()

	tickOnce := func() {
		r.feed("t1", stationaryMix)
		r.feed("t2", stationaryMix)
		r.step(ctx)
	}
	counter := func(name string) func() int64 {
		return func() int64 { return obs.Global.CounterValues()[name] }
	}
	misses, hits := counter("core.atom.miss"), counter("core.atom.hit")

	// Warmup: the first ticks price every statement of the stable mix at
	// every lattice point once.
	before := misses()
	tickOnce()
	tickOnce()
	warm := misses()
	if warm == before {
		t.Fatal("no statement priced during warmup")
	}

	prevHits := hits()
	for i := 0; i < 10; i++ {
		tickOnce()
		if got := misses(); got != warm {
			t.Fatalf("steady-state tick %d priced statements again (core.atom.miss %d, %d after warmup) — atoms not engaged", i+3, got, warm)
		}
		if h := hits(); h <= prevHits {
			t.Fatalf("steady-state tick %d: core.atom.hit stuck at %d — pricing not flowing through the atoms", i+3, h)
		} else {
			prevHits = h
		}
	}
	st := r.loop.Status()
	if st.Resolves < 12 || st.Errors != 0 {
		t.Fatalf("resolves = %d, errors = %d; want every tick resolved and none failed", st.Resolves, st.Errors)
	}
}

// TestDerivedSpecsFollowTheSketch checks the sketch→spec derivation:
// proportional expansion within the statement budget, fallback before
// traffic, and interning (equal mixes yield identical spec pointers).
func TestDerivedSpecsFollowTheSketch(t *testing.T) {
	r := newRig(t, nil, 16, calmDecider())

	r.loop.mu.Lock()
	specs := r.loop.deriveSpecs()
	r.loop.mu.Unlock()
	if got := specs[0].Statements; len(got) != 2 || got[0] != stmtScan {
		t.Fatalf("pre-traffic spec should use fallback statements, got %v", got)
	}

	r.feed("t1", []feedEntry{{stmtHungry, 12}, {stmtScan, 4}})
	r.loop.mu.Lock()
	specs1 := r.loop.deriveSpecs()
	specs2 := r.loop.deriveSpecs()
	r.loop.mu.Unlock()
	if specs1[0] != specs2[0] {
		t.Fatal("equal mixes must intern to the same spec pointer")
	}
	nH, nS := 0, 0
	for _, s := range specs1[0].Statements {
		switch s {
		case stmtHungry:
			nH++
		case stmtScan:
			nS++
		}
	}
	if nH <= nS || nH+nS != len(specs1[0].Statements) {
		t.Fatalf("derived mix %v does not reflect the 12:4 sketch proportions", specs1[0].Statements)
	}
	if specs1[0].Name == specs[0].Name {
		t.Fatal("distinct mixes must produce distinct spec names (shared-cache identity)")
	}
}
