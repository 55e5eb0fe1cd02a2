// Package autotune closes the paper's tuning loop: vdtuned stops being an
// answering service and becomes a controller. A Loop subscribes to the
// per-tenant workload sketches in internal/telemetry, and on a drift
// alarm or a periodic tick re-solves the machine's shares through the
// core solvers — but an actuation only reaches the VMs after passing the
// Decider, a pure decision layer with hysteresis, a cost-of-change
// penalty, cooldown windows, and a bounded step size. The split matters
// for testing: the Decider is a deterministic state machine over
// (tick, allocation, cost) inputs, so its stability properties —
// monotonicity in the gain threshold, cooldown spacing, step clamping —
// are property-testable without any solver or engine in the loop, while
// the Loop itself is chaos-tested end to end with seeded fault
// injection.
package autotune

import (
	"fmt"
	"math"

	"dbvirt/internal/core"
	"dbvirt/internal/vm"
)

// Suppression (and application) reasons recorded in decisions and
// exported as autotune.suppressed.* metric suffixes.
const (
	// ReasonNoChange: the candidate equals the current allocation.
	ReasonNoChange = "no-change"
	// ReasonBelowGain: the penalty-adjusted predicted gain did not clear
	// MinGain; the confirmation streak resets.
	ReasonBelowGain = "below-gain"
	// ReasonHysteresis: the gain cleared the threshold but has not yet
	// done so for ConfirmTicks consecutive evaluations.
	ReasonHysteresis = "hysteresis"
	// ReasonCooldown: a qualifying improvement arrived inside the
	// post-actuation cooldown window. The streak is retained, so the
	// actuation fires on the first qualifying tick after the window.
	ReasonCooldown = "cooldown"
)

// DeciderConfig parameterizes the decision layer; the zero value gets
// the documented defaults.
type DeciderConfig struct {
	// MinGain is the minimum penalty-adjusted relative improvement
	// (curCost-candCost-penalty)/curCost that counts as a qualifying
	// evaluation (default 0.05, i.e. 5%).
	MinGain float64
	// ConfirmTicks is the hysteresis depth: the gain must clear MinGain
	// on this many consecutive evaluations before an actuation is allowed
	// (default 2).
	ConfirmTicks int
	// CooldownTicks is the minimum number of ticks between actuations
	// (default 8). An actuation at tick t suppresses application through
	// tick t+CooldownTicks inclusive.
	CooldownTicks int64
	// MaxStepDelta bounds the largest per-share change of a single
	// actuation (default 0.25). A candidate further away is approached by
	// convex interpolation, which preserves the per-resource share sums.
	MaxStepDelta float64
	// ChangeCost is the reconfiguration penalty in cost units per unit of
	// share mass moved (default 0): migrating buffer pools and cgroup
	// weights is not free, so marginal wins must also pay for the move.
	ChangeCost float64
}

func (c *DeciderConfig) applyDefaults() {
	if c.MinGain <= 0 {
		c.MinGain = 0.05
	}
	if c.ConfirmTicks <= 0 {
		c.ConfirmTicks = 2
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 8
	}
	if c.MaxStepDelta <= 0 {
		c.MaxStepDelta = 0.25
	}
	if c.ChangeCost < 0 {
		c.ChangeCost = 0
	}
}

// Verdict is the outcome of one decision.
type Verdict struct {
	// Apply reports whether the actuation should proceed.
	Apply bool
	// Reason is the suppression reason ("" when Apply).
	Reason string
	// Target is the allocation to actuate when Apply: the candidate,
	// step-clamped toward the current allocation if necessary.
	Target core.Allocation
	// Gain is the penalty-adjusted relative improvement of the (unclamped)
	// candidate over the current allocation.
	Gain float64
	// Penalty is the cost-of-change charge deducted from the raw gain.
	Penalty float64
	// Streak is the consecutive-qualifying-evaluation count after this
	// decision.
	Streak int
	// StepScale is the convex interpolation factor applied to reach
	// Target (1 when the candidate was within the step bound; 0 when not
	// applying).
	StepScale float64
}

// Decider is the anti-flapping state machine. It is deliberately pure:
// no clock, no solver, no I/O — Decide is a function of its arguments
// and the two-field state (confirmation streak, last actuation tick), so
// identical traces yield identical decisions. Not safe for concurrent
// use; the Loop serializes access.
type Decider struct {
	cfg           DeciderConfig
	streak        int
	lastActuation int64
	actuated      bool
}

// NewDecider creates a decider; zero-valued config fields get defaults.
func NewDecider(cfg DeciderConfig) *Decider {
	cfg.applyDefaults()
	return &Decider{cfg: cfg}
}

// Decide evaluates one candidate reallocation at the given tick. cur and
// cand are the current and solver-proposed allocations; curCost and
// candCost their predicted objective values. The decision order is
// fixed: gain gate (resets the streak), hysteresis, cooldown (retains
// the streak), then step clamping — so a raised MinGain can only thin
// the qualifying ticks, never create new actuation opportunities.
func (d *Decider) Decide(tick int64, cur, cand core.Allocation, curCost, candCost float64) Verdict {
	v := Verdict{}
	moved := moveMass(cur, cand)
	if moved <= 1e-12 {
		d.streak = 0
		v.Reason = ReasonNoChange
		return v
	}
	v.Penalty = d.cfg.ChangeCost * moved
	if curCost > 0 {
		v.Gain = (curCost - candCost - v.Penalty) / curCost
	}
	if !(v.Gain > d.cfg.MinGain) {
		d.streak = 0
		v.Reason = ReasonBelowGain
		return v
	}
	d.streak++
	v.Streak = d.streak
	if d.streak < d.cfg.ConfirmTicks {
		v.Reason = ReasonHysteresis
		return v
	}
	if d.actuated && tick-d.lastActuation <= d.cfg.CooldownTicks {
		v.Reason = ReasonCooldown
		return v
	}
	v.Apply = true
	v.StepScale = 1
	if maxD := maxShareDelta(cur, cand); maxD > d.cfg.MaxStepDelta {
		v.StepScale = d.cfg.MaxStepDelta / maxD
	}
	v.Target = lerpAllocation(cur, cand, v.StepScale)
	d.lastActuation = tick
	d.actuated = true
	d.streak = 0
	return v
}

// moveMass is the share mass moved by going from a to b: half the L1
// distance summed over every resource, so swapping 0.25 of CPU between
// two workloads is 0.25 mass, not 0.5.
func moveMass(a, b core.Allocation) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i].CPU-b[i].CPU) +
			math.Abs(a[i].Memory-b[i].Memory) +
			math.Abs(a[i].IO-b[i].IO)
	}
	return d / 2
}

// maxShareDelta is the largest single-share change between a and b.
func maxShareDelta(a, b core.Allocation) float64 {
	var m float64
	for i := range a {
		for _, d := range [...]float64{
			a[i].CPU - b[i].CPU,
			a[i].Memory - b[i].Memory,
			a[i].IO - b[i].IO,
		} {
			if d = math.Abs(d); d > m {
				m = d
			}
		}
	}
	return m
}

// lerpAllocation interpolates from into toward a by factor t in [0, 1].
// Because every source allocation sums each resource to 1, any convex
// combination does too — the clamped step is always feasible.
func lerpAllocation(from, to core.Allocation, t float64) core.Allocation {
	out := make(core.Allocation, len(from))
	for i := range from {
		out[i] = vm.Shares{
			CPU:    from[i].CPU + t*(to[i].CPU-from[i].CPU),
			Memory: from[i].Memory + t*(to[i].Memory-from[i].Memory),
			IO:     from[i].IO + t*(to[i].IO-from[i].IO),
		}
	}
	return out
}

func (v Verdict) String() string {
	if v.Apply {
		return fmt.Sprintf("apply gain=%.4f penalty=%.4f step=%.2f", v.Gain, v.Penalty, v.StepScale)
	}
	return fmt.Sprintf("suppress(%s) gain=%.4f streak=%d", v.Reason, v.Gain, v.Streak)
}
