package autotune

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dbvirt/internal/core"
	"dbvirt/internal/engine"
	"dbvirt/internal/obs"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
)

// Always-on control-loop metrics. Suppressions split by reason so a
// dashboard can tell "the loop is calm" (no-change / below-gain) from
// "the loop wants to move but is being held back" (hysteresis /
// cooldown).
var (
	mTicks      = obs.Global.Counter("autotune.ticks")
	mResolves   = obs.Global.Counter("autotune.resolves")
	mActuations = obs.Global.Counter("autotune.actuations")
	mSkips      = obs.Global.Counter("autotune.skips")
	mErrors     = obs.Global.Counter("autotune.errors")
	mSuppressed = map[string]*obs.Counter{
		ReasonNoChange:   obs.Global.Counter("autotune.suppressed.no_change"),
		ReasonBelowGain:  obs.Global.Counter("autotune.suppressed.below_gain"),
		ReasonHysteresis: obs.Global.Counter("autotune.suppressed.hysteresis"),
		ReasonCooldown:   obs.Global.Counter("autotune.suppressed.cooldown"),
	}
	gEnabled       = obs.Global.Gauge("autotune.enabled")
	gGainPredicted = obs.Global.Gauge("autotune.gain.predicted")
	gGainRealized  = obs.Global.Gauge("autotune.gain.realized")
)

// Tick triggers.
const (
	// TriggerManual marks a tick forced through Trigger (the HTTP
	// endpoint); it always resolves.
	TriggerManual = "manual"
	// TriggerDrift marks a tick whose resolve was caused by at least one
	// tenant's drift alarm.
	TriggerDrift = "drift"
	// TriggerPeriodic marks a scheduled background resolve (every
	// ResolveEvery-th tick with no alarm).
	TriggerPeriodic = "periodic"
)

const (
	// statementBudget bounds the statement count of a sketch-derived
	// workload spec.
	statementBudget = 12
	// decisionLogSize bounds the decision log.
	decisionLogSize = 256
)

// searched is the one dimension the loop optimizes, CPU, as in the
// paper's illustrative setting; the others stay split equally.
var searched = []vm.Resource{vm.CPU}

// Decision actions.
const (
	ActionApplied    = "applied"
	ActionSuppressed = "suppressed"
	ActionSkipped    = "skipped"
	ActionError      = "error"
)

// ManagedTenant binds one controlled VM slot to its telemetry stream:
// the loop derives the tenant's current workload description from the
// sketch under Name, against database DB.
type ManagedTenant struct {
	// Name is the telemetry tenant name (server.tenantName for HTTP
	// traffic).
	Name string
	// DB is the tenant's analyzed database.
	DB *engine.Database
	// Weight and SLOSeconds carry into the derived WorkloadSpec.
	Weight     float64
	SLOSeconds float64
	// Fallback is the normalized statement list used before the sketch
	// has observed any traffic (e.g. the configured workload definition).
	Fallback []string
}

// Config parameterizes a Loop; zero-valued fields get the documented
// defaults.
type Config struct {
	// Hub supplies per-tenant sketches and drift alarms.
	Hub *telemetry.Hub
	// Model prices workloads. The daemon hands its WhatIfModel here, whose
	// cost atoms answer steady-state ticks: a stable mix prices no
	// statement twice under one P(R).
	Model core.CostModel
	// VMs are the controlled machines' VMs, positionally matched to
	// Tenants.
	VMs []*vm.VM
	// Tenants describe the controlled workloads.
	Tenants []ManagedTenant
	// Step is the solver grid quantum (default 0.25); it is also the
	// smallest share a tenant may receive.
	Step float64
	// Parallelism bounds solver workers (0 = GOMAXPROCS).
	Parallelism int
	// Decider configures the anti-flapping layer.
	Decider DeciderConfig
	// ResolveEvery is the periodic resolve cadence in ticks when no drift
	// alarm fires (default 1: every tick; larger values make non-alarmed
	// ticks cheap no-ops).
	ResolveEvery int
	// Clock supplies decision timestamps (default time.Now). Tests inject
	// a fixed clock; no decision logic reads it.
	Clock func() time.Time
	// StartEnabled starts the loop enabled (the HTTP endpoints toggle it
	// afterwards).
	StartEnabled bool
}

// Decision is one recorded control-loop evaluation — the unit of the
// bounded decision log behind GET /v1/autotune/status.
type Decision struct {
	Tick     int64    `json:"tick"`
	UnixMS   int64    `json:"unix_ms"`
	Trigger  string   `json:"trigger,omitempty"`
	Action   string   `json:"action"`
	Reason   string   `json:"reason,omitempty"`
	DriftMax float64  `json:"drift_max"`
	Alarmed  []string `json:"alarmed,omitempty"`

	Current   []vm.Shares `json:"current,omitempty"`
	Candidate []vm.Shares `json:"candidate,omitempty"`
	Applied   []vm.Shares `json:"applied,omitempty"`

	CurrentTotal   float64   `json:"current_total,omitempty"`
	CandidateTotal float64   `json:"candidate_total,omitempty"`
	CurrentCosts   []float64 `json:"current_costs,omitempty"`
	Penalty        float64   `json:"penalty,omitempty"`
	Gain           float64   `json:"gain,omitempty"`
	// RealizedGain is filled on the first resolve after an actuation: the
	// relative improvement of the new allocation over the pre-actuation
	// one, both priced under the *current* workload mix — the
	// predicted-vs-realized feedback signal.
	RealizedGain *float64 `json:"realized_gain,omitempty"`
	Streak       int      `json:"streak,omitempty"`
	StepScale    float64  `json:"step_scale,omitempty"`
	Err          string   `json:"error,omitempty"`
}

// Status is the exported loop state.
type Status struct {
	Enabled    bool             `json:"enabled"`
	Tick       int64            `json:"tick"`
	Ticks      int64            `json:"ticks"`
	Resolves   int64            `json:"resolves"`
	Actuations int64            `json:"actuations"`
	Skips      int64            `json:"skips"`
	Errors     int64            `json:"errors"`
	Suppressed map[string]int64 `json:"suppressed"`
	Tenants    []string         `json:"tenants"`
	Allocation []vm.Shares      `json:"allocation"`
	// Decisions is the bounded log, oldest first.
	Decisions []Decision `json:"decisions"`
}

// Loop is the closed-loop autotuner. All methods are safe for concurrent
// use; ticks are serialized.
type Loop struct {
	cfg Config
	dec *Decider

	mu           sync.Mutex
	enabled      bool
	tick         int64
	sinceResolve int
	log          []Decision
	logSize      int // bound on log: decisionLogSize, smaller in tests
	counts       struct {
		ticks, resolves, actuations, skips, errors int64
		suppressed                                 map[string]int64
	}
	// prevAlloc, when non-nil, is the allocation replaced by the last
	// actuation; the next resolve prices it to compute the realized gain.
	prevAlloc core.Allocation
}

// NewLoop validates cfg and builds a loop. The VMs must already hold a
// feasible allocation (e.g. core.EqualAllocation applied at deploy
// time).
func NewLoop(cfg Config) (*Loop, error) {
	if cfg.Hub == nil {
		return nil, fmt.Errorf("autotune: nil telemetry hub")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("autotune: nil cost model")
	}
	if len(cfg.Tenants) < 2 {
		return nil, fmt.Errorf("autotune: need at least 2 managed tenants, got %d", len(cfg.Tenants))
	}
	if len(cfg.VMs) != len(cfg.Tenants) {
		return nil, fmt.Errorf("autotune: %d VMs for %d tenants", len(cfg.VMs), len(cfg.Tenants))
	}
	for i, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("autotune: tenant %d has no name", i)
		}
		if t.DB == nil {
			return nil, fmt.Errorf("autotune: tenant %s has no database", t.Name)
		}
		if len(t.Fallback) == 0 {
			return nil, fmt.Errorf("autotune: tenant %s has no fallback statements", t.Name)
		}
	}
	if cfg.Step <= 0 {
		cfg.Step = 0.25
	}
	if cfg.ResolveEvery <= 0 {
		cfg.ResolveEvery = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	l := &Loop{
		cfg:     cfg,
		dec:     NewDecider(cfg.Decider),
		logSize: decisionLogSize,
		enabled: cfg.StartEnabled,
	}
	l.counts.suppressed = make(map[string]int64)
	if l.enabled {
		gEnabled.Set(1)
	}
	return l, nil
}

// Enable turns actuation on.
func (l *Loop) Enable() {
	l.mu.Lock()
	l.enabled = true
	l.mu.Unlock()
	gEnabled.Set(1)
}

// Disable turns the loop off: ticks still count but are skipped whole
// (no resolve, no actuation).
func (l *Loop) Disable() {
	l.mu.Lock()
	l.enabled = false
	l.mu.Unlock()
	gEnabled.Set(0)
}

// Tick runs one scheduled evaluation: drift check, resolve if triggered,
// decide, possibly actuate. It returns the recorded decision.
func (l *Loop) Tick(ctx context.Context) Decision {
	return l.tickLocked(ctx, false)
}

// Trigger runs one forced evaluation (the POST /v1/autotune/trigger
// path): the resolve happens regardless of drift or cadence, though the
// decision layer still applies.
func (l *Loop) Trigger(ctx context.Context) Decision {
	return l.tickLocked(ctx, true)
}

// Run ticks the loop every interval until ctx is cancelled — the
// background mode of vdtuned. A non-positive interval returns
// immediately (manual triggers only).
func (l *Loop) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			l.Tick(ctx)
		}
	}
}

func (l *Loop) tickLocked(ctx context.Context, manual bool) Decision {
	l.mu.Lock()
	defer l.mu.Unlock()

	l.tick++
	l.counts.ticks++
	mTicks.Inc()
	d := Decision{Tick: l.tick, UnixMS: l.cfg.Clock().UnixMilli()}

	if !l.enabled {
		d.Action, d.Reason = ActionSkipped, "disabled"
		l.counts.skips++
		mSkips.Inc()
		l.record(d)
		return d
	}

	// Drift check across every managed tenant.
	var alarmed []string
	for _, t := range l.cfg.Tenants {
		ten := l.cfg.Hub.Tenant(t.Name)
		if s := ten.DriftScore(); s > d.DriftMax {
			d.DriftMax = s
		}
		if ten.Alarmed() {
			alarmed = append(alarmed, t.Name)
		}
	}
	sort.Strings(alarmed)
	d.Alarmed = alarmed

	l.sinceResolve++
	switch {
	case manual:
		d.Trigger = TriggerManual
	case len(alarmed) > 0:
		d.Trigger = TriggerDrift
	case l.sinceResolve >= l.cfg.ResolveEvery:
		d.Trigger = TriggerPeriodic
	default:
		d.Action, d.Reason = ActionSkipped, "no-trigger"
		l.counts.skips++
		mSkips.Inc()
		l.record(d)
		return d
	}
	l.sinceResolve = 0
	l.counts.resolves++
	mResolves.Inc()

	fail := func(err error) Decision {
		d.Action, d.Err = ActionError, err.Error()
		l.counts.errors++
		mErrors.Inc()
		l.record(d)
		return d
	}

	p := &core.Problem{
		Workloads:   l.deriveSpecs(),
		Resources:   searched,
		Step:        l.cfg.Step,
		Parallelism: l.cfg.Parallelism,
	}
	cur := currentAllocation(l.cfg.VMs)
	d.Current = cur
	curRes, err := core.EvaluateAllocation(ctx, p, l.cfg.Model, cur, "autotune.current")
	if err != nil {
		return fail(err)
	}
	d.CurrentTotal = curRes.PredictedTotal
	d.CurrentCosts = curRes.PredictedCosts

	// Predicted-vs-realized feedback: price the allocation the last
	// actuation replaced, under today's workload mix.
	if l.prevAlloc != nil {
		if prevRes, err := core.EvaluateAllocation(ctx, p, l.cfg.Model, l.prevAlloc, "autotune.realized"); err == nil && prevRes.PredictedTotal > 0 {
			rg := 1 - curRes.PredictedTotal/prevRes.PredictedTotal
			d.RealizedGain = &rg
			gGainRealized.Set(rg)
		}
		l.prevAlloc = nil
	}

	candRes, err := core.SolveDP(ctx, p, l.cfg.Model)
	if err != nil {
		return fail(err)
	}
	d.Candidate = candRes.Allocation
	d.CandidateTotal = candRes.PredictedTotal

	v := l.dec.Decide(l.tick, cur, candRes.Allocation, curRes.PredictedTotal, candRes.PredictedTotal)
	d.Gain, d.Penalty, d.Streak, d.StepScale = v.Gain, v.Penalty, v.Streak, v.StepScale
	gGainPredicted.Set(v.Gain)

	if !v.Apply {
		d.Action, d.Reason = ActionSuppressed, v.Reason
		l.counts.suppressed[v.Reason]++
		if c := mSuppressed[v.Reason]; c != nil {
			c.Inc()
		}
		l.record(d)
		return d
	}

	if err := core.ApplyShares(l.cfg.VMs, v.Target); err != nil {
		return fail(err)
	}
	d.Action = ActionApplied
	d.Applied = v.Target
	l.counts.actuations++
	mActuations.Inc()
	l.prevAlloc = cur
	l.record(d)
	return d
}

// deriveSpecs builds the per-tenant workload specs from the sketch mixes
// (falling back to the configured statements before any traffic) through
// core.Intern: a stable mix yields pointer-identical specs across ticks,
// and two tenants with one mix over one database share one spec, so what
// the model keeps per spec — the what-if model's resolved statement
// handles — stays hot. A derived spec is labelled by its statements' hash;
// weight and SLO are views of it. Caller holds l.mu.
func (l *Loop) deriveSpecs() []*core.WorkloadSpec {
	specs := make([]*core.WorkloadSpec, len(l.cfg.Tenants))
	for i, t := range l.cfg.Tenants {
		stmts := mixStatements(l.cfg.Hub.Tenant(t.Name).Mix(), statementBudget)
		if len(stmts) == 0 {
			stmts = t.Fallback
		}
		specs[i] = core.Intern(fmt.Sprintf("at:%x", core.StatementsHash(stmts)), t.DB, stmts)
		if t.Weight != 0 || t.SLOSeconds != 0 {
			specs[i] = specs[i].WithObjective(t.Weight, t.SLOSeconds)
		}
	}
	return specs
}

// mixStatements expands sketch heavy hitters into a bounded statement
// list proportional to their observed frequencies: each retained key
// appears max(1, round(budget·count/total)) times. Entry order is the
// sketch's deterministic order, so equal mixes produce equal lists.
func mixStatements(entries []telemetry.TopKEntry, budget int) []string {
	var total int64
	for _, e := range entries {
		total += e.Count
	}
	if total <= 0 {
		return nil
	}
	out := make([]string, 0, budget)
	for _, e := range entries {
		n := int(float64(budget)*float64(e.Count)/float64(total) + 0.5)
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			out = append(out, e.Key)
		}
	}
	return out
}

func currentAllocation(vms []*vm.VM) core.Allocation {
	a := make(core.Allocation, len(vms))
	for i, v := range vms {
		a[i] = v.Shares()
	}
	return a
}

// record appends d to the bounded decision log. Caller holds l.mu.
func (l *Loop) record(d Decision) {
	l.log = append(l.log, d)
	if over := len(l.log) - l.logSize; over > 0 {
		l.log = append(l.log[:0], l.log[over:]...)
	}
}

// Status snapshots the loop for /v1/autotune/status.
func (l *Loop) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Status{
		Enabled:    l.enabled,
		Tick:       l.tick,
		Ticks:      l.counts.ticks,
		Resolves:   l.counts.resolves,
		Actuations: l.counts.actuations,
		Skips:      l.counts.skips,
		Errors:     l.counts.errors,
		Suppressed: make(map[string]int64, len(l.counts.suppressed)),
		Allocation: currentAllocation(l.cfg.VMs),
		Decisions:  append([]Decision(nil), l.log...),
	}
	for k, v := range l.counts.suppressed {
		s.Suppressed[k] = v
	}
	for _, t := range l.cfg.Tenants {
		s.Tenants = append(s.Tenants, t.Name)
	}
	return s
}
