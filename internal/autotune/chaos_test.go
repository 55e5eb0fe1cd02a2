package autotune

// Chaos tests: the PR-3 seeded fault injector perturbs every cost-model
// reading (multiplicative noise, 10x latency spikes, transient errors)
// while the loop ticks. The acceptance bar from the paper's operational
// framing: measurement noise must never cause allocation flapping, but a
// genuine workload shift must still actuate promptly. Both runs are pure
// functions of the injector seed and the feed sequence, so they are
// deterministic under -race and in CI.

import (
	"context"
	"testing"
)

// chaosDecider is the production-shaped anti-flapping configuration the
// chaos tests exercise: a 12% net-gain bar confirmed on 3 consecutive
// evaluations, a 10-tick cooldown, and a 2-cost-units-per-share-mass
// change penalty.
func chaosDecider() DeciderConfig {
	return DeciderConfig{
		MinGain:       0.12,
		ConfirmTicks:  3,
		CooldownTicks: 10,
		MaxStepDelta:  0.25,
		ChangeCost:    2.0,
	}
}

// stationaryMix is a symmetric workload: both tenants run the same
// scan/flat blend, so the equal split is the true optimum and every
// apparent improvement is a noise artifact.
var stationaryMix = []feedEntry{{stmtScan, 8}, {stmtFlat, 8}}

// TestChaosStationaryNoFlapping drives 250 ticks of noisy measurements
// over a stationary workload and requires zero actuations: the
// hysteresis + cost-of-change + gain-threshold stack must absorb every
// fake gain the injector manufactures.
func TestChaosStationaryNoFlapping(t *testing.T) {
	inj := chaosInjector(t)
	inner := &synthModel{}
	r := newRig(t, nil, 16, chaosDecider())
	r.loop.cfg.Model = &noisyModel{inner: inner, inj: inj, tick: &r.tick}

	ctx := context.Background()
	const ticks = 250
	for i := 0; i < ticks; i++ {
		r.feed("t1", stationaryMix)
		r.feed("t2", stationaryMix)
		r.step(ctx)
	}
	st := r.loop.Status()
	if st.Ticks != ticks {
		t.Fatalf("ticks = %d, want %d", st.Ticks, ticks)
	}
	if st.Actuations != 0 {
		t.Fatalf("stationary workload under noise actuated %d times (flapping); decisions: %+v",
			st.Actuations, lastDecisions(st, 6))
	}
	// The loop must have genuinely evaluated, not skipped its way to zero:
	// every tick resolves (ResolveEvery=1) unless the injector erred it.
	if st.Resolves+st.Errors < ticks/2 {
		t.Fatalf("only %d resolves (+%d errors) over %d ticks — loop not exercising the solver", st.Resolves, st.Errors, ticks)
	}
	for i, sh := range st.Allocation {
		if sh.CPU != 0.5 {
			t.Fatalf("VM %d CPU share = %g, want untouched 0.5", i, sh.CPU)
		}
	}
}

// TestChaosGenuineShiftActuates runs the same noisy loop, but at tick 50
// tenant t1's traffic genuinely shifts to the CPU-hungry statement. The
// drift alarm must fire and the loop must reconfigure within 10 ticks of
// the shift — anti-flapping may delay, not deny — and then hold the new
// allocation (exactly one reconfiguration episode).
func TestChaosGenuineShiftActuates(t *testing.T) {
	inj := chaosInjector(t)
	inner := &synthModel{}
	r := newRig(t, nil, 16, chaosDecider())
	r.loop.cfg.Model = &noisyModel{inner: inner, inj: inj, tick: &r.tick}

	ctx := context.Background()
	const (
		shiftTick = 50
		ticks     = 90
		converge  = 10
	)
	hungryMix := []feedEntry{{stmtHungry, 16}}
	var decisions []Decision
	for i := 1; i <= ticks; i++ {
		mix := stationaryMix
		if i > shiftTick {
			mix = hungryMix
		}
		r.feed("t1", mix)
		r.feed("t2", stationaryMix)
		decisions = append(decisions, r.step(ctx))
	}

	var applied []Decision
	alarmTick := int64(0)
	for _, d := range decisions {
		if alarmTick == 0 && len(d.Alarmed) > 0 {
			alarmTick = d.Tick
		}
		if d.Action == ActionApplied {
			applied = append(applied, d)
		}
	}
	if alarmTick == 0 {
		t.Fatalf("drift never alarmed after the shift at tick %d", shiftTick)
	}
	if len(applied) == 0 {
		t.Fatalf("genuine workload shift never actuated; last decisions: %+v", decisions[len(decisions)-6:])
	}
	first := applied[0]
	if first.Tick <= shiftTick {
		t.Fatalf("actuated at tick %d, before the shift at %d", first.Tick, shiftTick)
	}
	if first.Tick > shiftTick+converge {
		t.Fatalf("actuated at tick %d, more than %d ticks after the shift at %d", first.Tick, converge, shiftTick)
	}
	if len(applied) != 1 {
		ticks := make([]int64, len(applied))
		for i, d := range applied {
			ticks[i] = d.Tick
		}
		t.Fatalf("expected exactly one reconfiguration episode, got %d (ticks %v)", len(applied), ticks)
	}
	st := r.loop.Status()
	if got := st.Allocation[0].CPU; got <= st.Allocation[1].CPU {
		t.Fatalf("CPU-hungry tenant t1 holds %g CPU vs t2's %g; shift not reflected", got, st.Allocation[1].CPU)
	}
}

// TestChaosDeterministic re-runs the stationary chaos scenario and
// requires the decision stream to be identical: the loop contract is
// that outcomes are a pure function of seed and feed, never of
// scheduling or wall clock.
func TestChaosDeterministic(t *testing.T) {
	run := func() []Decision {
		inj := chaosInjector(t)
		inner := &synthModel{}
		r := newRig(t, nil, 16, chaosDecider())
		r.loop.cfg.Model = &noisyModel{inner: inner, inj: inj, tick: &r.tick}
		ctx := context.Background()
		for i := 0; i < 60; i++ {
			r.feed("t1", stationaryMix)
			r.feed("t2", stationaryMix)
			r.step(ctx)
		}
		return r.loop.Status().Decisions
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		// UnixMS comes from the injected fixed clock, so the whole record
		// must match field-for-field.
		if x.Tick != y.Tick || x.Action != y.Action || x.Reason != y.Reason ||
			x.Gain != y.Gain || x.CurrentTotal != y.CurrentTotal ||
			x.CandidateTotal != y.CandidateTotal || x.UnixMS != y.UnixMS {
			t.Fatalf("decision %d differs between runs:\n%+v\n%+v", i, x, y)
		}
	}
}

func lastDecisions(st Status, n int) []Decision {
	if len(st.Decisions) <= n {
		return st.Decisions
	}
	return st.Decisions[len(st.Decisions)-n:]
}
