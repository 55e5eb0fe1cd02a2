package placement

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dbvirt/internal/core"
	"dbvirt/internal/vm"
)

// machineSolve is one memoized per-machine design solution, in the
// canonical slot order of its key (rep spec key asc). Its solution fields
// are immutable once stored: incremental passes read them concurrently.
type machineSolve struct {
	display string // Machine.Key of every machine seated from this solve
	repIDs  []int  // solver-interned rep id of each slot
	shares  []vm.Shares
	costs   []float64
	total   float64

	// verified is set once Placement.Verify has re-evaluated this shape's
	// allocation through the cost model and found costs and total
	// bit-identical; cost is a pure function of the PricingKey multiset, so
	// one evaluation vouches for every machine seated from the solve.
	verified atomic.Bool

	// The solve's share of the wire encoding, rendered when first needed
	// (see encode.go).
	fragOnce sync.Once
	frag     solveFragments
}

// displayKey is the human-readable form of a machine key: the slot-ordered
// rep spec keys joined with a group separator.
func displayKey(specs []*core.WorkloadSpec) string {
	keys := make([]string, len(specs))
	for i, w := range specs {
		keys[i] = w.PricingKey()
	}
	return strings.Join(keys, "\x1d")
}

// machineProblem builds the single-machine design problem for a slot
// spec list (len >= 2).
func (s *Solver) machineProblem(specs []*core.WorkloadSpec, parallelism int) *core.Problem {
	return &core.Problem{
		Workloads:   specs,
		Resources:   s.cfg.Resources,
		Step:        s.cfg.Step,
		Parallelism: parallelism,
	}
}

// solveMachine prices one machine shape. A single-tenant machine gets the
// whole box (shares 1/1/1) without a search; multi-tenant machines run
// the configured single-machine solver. Results are deterministic per
// key, so concurrent solves of the same key are merely wasted work, never
// divergent answers. repIDs are the slots' solver-interned rep ids.
func (s *Solver) solveMachine(ctx context.Context, key string, specs []*core.WorkloadSpec, repIDs []int, parallelism int) (*machineSolve, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("placement: empty machine %q", key)
	}
	ms := &machineSolve{display: displayKey(specs), repIDs: repIDs}
	if len(specs) == 1 {
		full := vm.Shares{CPU: 1, Memory: 1, IO: 1}
		c, err := s.model.Cost(ctx, specs[0], full)
		if err != nil {
			return nil, err
		}
		ms.shares, ms.costs, ms.total = []vm.Shares{full}, []float64{c}, specWeight(specs[0])*c
		return ms, nil
	}
	p := s.machineProblem(specs, parallelism)
	var res *core.Result
	var err error
	switch s.cfg.Algo {
	case "dp":
		res, err = core.SolveDP(ctx, p, s.model)
	default:
		res, err = core.SolveGreedy(ctx, p, s.model)
	}
	if err != nil {
		return nil, fmt.Errorf("placement: solving machine %q: %w", key, err)
	}
	ms.shares, ms.costs, ms.total = res.Allocation, res.PredictedCosts, res.PredictedTotal
	return ms, nil
}
