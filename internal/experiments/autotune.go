package experiments

// The closed-loop payoff figure (Figure 5 extended into a time series):
// two tenants run under the autotuning controller; mid-trace one
// tenant's mix collapses from the I/O-bound Q4 scan to cheap point
// lookups. The series shows the paper's dynamic-reconfiguration story
// end to end — shift, drift alarm, hysteresis-delayed share shift, and
// the predicted-cost drop that pays for it — produced by the same
// internal/autotune loop vdtuned runs, under an injected clock so the
// figure is deterministic.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dbvirt/internal/autotune"
	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// FigCRow is one control-loop tick of the payoff series. Every field is
// deterministic — the loop runs under a fixed clock and a synthetic
// grid, and no wall-clock measurement appears in the row — so the
// figure can be pinned by a golden snapshot.
type FigCRow struct {
	Tick    int64   `json:"tick"`
	Phase   string  `json:"phase"` // "stationary" | "shifted"
	Trigger string  `json:"trigger"`
	Action  string  `json:"action"`
	Reason  string  `json:"reason,omitempty"`
	Drift   float64 `json:"drift"`
	Alarmed bool    `json:"alarmed"`
	Gain    float64 `json:"gain"`
	// Cost is the predicted total cost of the allocation in force when
	// the tick ran — the figure's "latency" axis.
	Cost  float64 `json:"cost"`
	W1CPU float64 `json:"w1_cpu"` // shares after the tick's decision
	W2CPU float64 `json:"w2_cpu"`
}

// FigureControl replays the two-phase trace through a real control
// loop: preTicks ticks of symmetric Q4 traffic (the controller must
// hold the equal split), then postTicks ticks with tenant w2 shifted to
// QPOINT (the controller must move CPU to w1 exactly once).
func FigureControl(e *workload.Env, preTicks, postTicks int) ([]FigCRow, error) {
	axes := []float64{0.25, 0.5, 0.75, 1.0}
	grid, err := calibration.SyntheticGrid(axes, axes)
	if err != nil {
		return nil, err
	}
	model := &core.WhatIfModel{Grid: grid}

	db1, err := e.DB("at-w1")
	if err != nil {
		return nil, err
	}
	db2, err := e.DB("at-w2")
	if err != nil {
		return nil, err
	}
	machine, err := vm.NewMachine(e.Machine)
	if err != nil {
		return nil, err
	}
	equal := core.EqualAllocation(2)
	vms := make([]*vm.VM, 2)
	for i, name := range []string{"w1", "w2"} {
		if vms[i], err = machine.NewVM(name, equal[i]); err != nil {
			return nil, err
		}
	}
	fallback := workload.Repeat("w", workload.Query("Q4"), 2).Statements
	hub := telemetry.NewHub(telemetry.Config{Window: 8, TopK: 8})

	base := time.Unix(1700000000, 0).UTC()
	var clockTicks int64
	loop, err := autotune.NewLoop(autotune.Config{
		Hub:   hub,
		Model: model,
		VMs:   vms,
		Tenants: []autotune.ManagedTenant{
			{Name: "w1", DB: db1, Fallback: fallback},
			{Name: "w2", DB: db2, Fallback: fallback},
		},
		Step:        0.25,
		Parallelism: e.Parallelism,
		Decider: autotune.DeciderConfig{
			MinGain:       0.05,
			ConfirmTicks:  2,
			CooldownTicks: 4,
			MaxStepDelta:  0.25,
		},
		Clock: func() time.Time {
			clockTicks++
			return base.Add(time.Duration(clockTicks) * time.Second)
		},
		StartEnabled: true,
	})
	if err != nil {
		return nil, err
	}

	feed := func(tenant, query string) {
		t := hub.Tenant(tenant)
		for i := 0; i < 8; i++ { // one full sketch window per tick
			t.ObserveQuery(workload.Query(query))
		}
	}
	ctx := context.Background()
	rows := make([]FigCRow, 0, preTicks+postTicks)
	for i := 0; i < preTicks+postTicks; i++ {
		phase, w2q := "stationary", "Q4"
		if i >= preTicks {
			phase, w2q = "shifted", "QPOINT"
		}
		feed("w1", "Q4")
		feed("w2", w2q)
		d := loop.Tick(ctx)
		if d.Action == autotune.ActionError {
			return nil, fmt.Errorf("experiments: control tick %d: %s", d.Tick, d.Err)
		}
		rows = append(rows, FigCRow{
			Tick:    d.Tick,
			Phase:   phase,
			Trigger: d.Trigger,
			Action:  d.Action,
			Reason:  d.Reason,
			Drift:   d.DriftMax,
			Alarmed: len(d.Alarmed) > 0,
			Gain:    d.Gain,
			Cost:    d.CurrentTotal,
			W1CPU:   vms[0].Shares().CPU,
			W2CPU:   vms[1].Shares().CPU,
		})
	}
	return rows, nil
}

// FormatFigureControl renders the payoff time series.
func FormatFigureControl(rows []FigCRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure C: closed-loop payoff (Q4/Q4 -> Q4/QPOINT at the phase break)\n")
	fmt.Fprintf(&b, "%4s  %-10s  %-8s  %-10s  %-10s  %6s  %5s  %8s  %5s  %5s\n",
		"tick", "phase", "trigger", "action", "reason", "drift", "alarm", "cost", "w1cpu", "w2cpu")
	for _, r := range rows {
		alarm := ""
		if r.Alarmed {
			alarm = "ALARM"
		}
		fmt.Fprintf(&b, "%4d  %-10s  %-8s  %-10s  %-10s  %6.3f  %5s  %8.4f  %5.2f  %5.2f\n",
			r.Tick, r.Phase, r.Trigger, r.Action, r.Reason, r.Drift, alarm, r.Cost, r.W1CPU, r.W2CPU)
	}
	return b.String()
}
