package core

import (
	"context"
	"fmt"
	"sync"

	"dbvirt/internal/calibration"
	"dbvirt/internal/engine"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/vm"
)

// WhatIfModel is the paper's cost model: for a candidate allocation R it
// obtains the calibrated optimizer parameters P(R) — directly from the
// calibrator, or by interpolating a pre-computed grid — and sums the
// optimizer's estimated execution times of the workload's queries planned
// under P(R). Nothing is executed.
type WhatIfModel struct {
	// Cal calibrates on demand; used when Grid is nil or misses.
	Cal *calibration.Calibrator
	// Grid, if set, answers allocations by bilinear interpolation,
	// avoiding new calibration experiments (the paper's §7 refinement).
	Grid *calibration.Grid
	// NoPrepare disables the prepared-statement cache and its cost atoms,
	// re-parsing, re-binding, and re-enumerating every statement on every
	// call — the pre-memoization behavior, kept as the cold baseline for
	// benchmarks and differential tests.
	NoPrepare bool

	prepOnce sync.Once
	prep     *stmtCache
}

// prepared returns the model's statement cache, creating it lazily so the
// zero value (and composite-literal construction) keeps working.
func (m *WhatIfModel) prepared() *stmtCache {
	m.prepOnce.Do(func() { m.prep = newStmtCache() })
	return m.prep
}

// Name implements CostModel.
func (m *WhatIfModel) Name() string {
	if m.Grid != nil {
		return "whatif-grid"
	}
	return "whatif"
}

// params obtains P(R).
func (m *WhatIfModel) params(ctx context.Context, shares vm.Shares) (optimizer.Params, error) {
	if m.Grid != nil {
		if p, ok := m.Grid.Lookup(shares); ok {
			return p, nil
		}
		return m.Grid.Interpolate(shares), nil
	}
	if m.Cal == nil {
		return optimizer.Params{}, fmt.Errorf("core: WhatIfModel has neither grid nor calibrator")
	}
	return m.Cal.Calibrate(ctx, shares)
}

// Cost implements CostModel. Each distinct statement is priced once per
// P(R) — from its cost atom, else by re-costing its prepared plan space —
// and the workload total is summed in statement order, so it is the same
// float64 whether an atom, a re-cost or the NoPrepare path produced each
// term. A panic below (a bug in the optimizer or a broken spec) is
// returned as an error: callers are solver workers and request handlers
// that must fail one evaluation, not the process or a connection.
func (m *WhatIfModel) Cost(ctx context.Context, w *WorkloadSpec, shares vm.Shares) (total float64, err error) {
	mWhatIfCalls.Inc()
	defer func() {
		if r := recover(); r != nil {
			total, err = 0, fmt.Errorf("core: cost model %s panicked: %v", m.Name(), r)
		}
	}()
	p, err := m.params(ctx, shares)
	if err != nil {
		return 0, err
	}
	if m.NoPrepare {
		for _, stmt := range w.Statements {
			est, err := estimateStatement(w.DB, stmt, p)
			if err != nil {
				return 0, fmt.Errorf("core: workload %s: %w", w.Name, err)
			}
			total += est
		}
		return total, nil
	}
	c := m.prepared()
	var prev *stmtEntry
	var est float64
	for _, e := range c.handles(w) {
		if e != prev {
			// A run of one statement — the paper's N copies of a query —
			// prices it once.
			if est, err = c.estimate(e, p); err != nil {
				return 0, fmt.Errorf("core: workload %s: %w", w.Name, err)
			}
			prev = e
		}
		total += est
	}
	return total, nil
}

// estimateStatement plans one SELECT under P and returns its estimated
// seconds. Non-SELECT statements are rejected: design-time workloads are
// query workloads, as in the paper.
func estimateStatement(db *engine.Database, stmt string, p optimizer.Params) (float64, error) {
	sel, err := sql.ParseSelect(stmt)
	if err != nil {
		return 0, err
	}
	q, err := plan.Bind(sel, db.Catalog)
	if err != nil {
		return 0, err
	}
	pl, err := optimizer.Optimize(q, p)
	if err != nil {
		return 0, err
	}
	return pl.EstimatedSeconds(), nil
}

// MeasuredModel is the oracle cost model: it actually runs the workload
// in a freshly provisioned VM at the candidate allocation and reports the
// simulated elapsed time. It is far more expensive than the what-if model
// and exists to validate it (and as the measurement harness for the
// paper's "actual" bars).
type MeasuredModel struct {
	Machine vm.MachineConfig
	Engine  engine.Config
	// Warmup runs the workload once before measuring, as the paper does
	// by including multiple query copies.
	Warmup bool
}

// Name implements CostModel.
func (m *MeasuredModel) Name() string { return "measured" }

// Cost implements CostModel.
func (m *MeasuredModel) Cost(ctx context.Context, w *WorkloadSpec, shares vm.Shares) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	machine, err := vm.NewMachine(m.Machine)
	if err != nil {
		return 0, err
	}
	v, err := machine.NewVM(w.Name, shares)
	if err != nil {
		return 0, err
	}
	sess, err := engine.NewSession(w.DB, v, m.Engine)
	if err != nil {
		return 0, err
	}
	if m.Warmup {
		if _, err := sess.RunWorkload(w.Statements); err != nil {
			return 0, err
		}
	}
	return sess.RunWorkload(w.Statements)
}
