package core

import (
	"context"
	"fmt"
	"sync"

	"dbvirt/internal/vm"
)

// Controller implements the paper's Section 7 dynamic extension: instead
// of solving the virtualization design problem once at deployment time, it
// re-solves whenever the workloads change and reconfigures the running
// VMs' shares on the fly.
type Controller struct {
	// Model predicts workload costs for candidate allocations.
	Model CostModel
	// Solve is the search algorithm (defaults to SolveDP).
	Solve func(context.Context, *Problem, CostModel) (*Result, error)
	// History records every reconfiguration decision.
	History []ControllerStep

	// mu serializes Reconfigure: both the History append and the
	// lower-then-raise share transition assume exclusive access to the
	// VMs. Configuration fields (Model, Solve) are not
	// protected — set them before sharing the controller.
	mu sync.Mutex
}

// ControllerStep is one reconfiguration decision.
type ControllerStep struct {
	Result  *Result
	Applied bool
}

// Reconfigure solves the design problem for the current workload
// descriptions and applies the resulting shares to the VMs. VMs are
// matched to workloads positionally. To avoid transient over-commitment,
// shares are first lowered everywhere, then raised. A cancelled ctx
// aborts the solve; shares are never half-applied from a cancelled solve.
// Concurrent callers are serialized.
func (c *Controller) Reconfigure(ctx context.Context, p *Problem, vms []*vm.VM) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(vms) != len(p.Workloads) {
		return nil, fmt.Errorf("core: %d VMs for %d workloads", len(vms), len(p.Workloads))
	}
	solve := c.Solve
	if solve == nil {
		solve = SolveDP
	}
	res, err := solve(ctx, p, c.Model)
	if err != nil {
		return nil, err
	}
	if err := ApplyShares(vms, res.Allocation); err != nil {
		c.History = append(c.History, ControllerStep{Result: res, Applied: false})
		return res, err
	}
	c.History = append(c.History, ControllerStep{Result: res, Applied: true})
	return res, nil
}

// ApplyShares transitions the VMs, matched to alloc positionally, to the
// target allocation without ever over-committing a resource: first every
// VM whose share shrinks is lowered, then the grown shares are raised.
// The caller serializes share changes on vms.
func ApplyShares(vms []*vm.VM, alloc Allocation) error {
	type change struct {
		v      *vm.VM
		target vm.Shares
	}
	var shrinks, grows []change
	for i, v := range vms {
		target := alloc[i]
		cur := v.Shares()
		// Intermediate step: the component-wise minimum never
		// over-commits.
		intermediate := vm.Shares{
			CPU:    minF(cur.CPU, target.CPU),
			Memory: minF(cur.Memory, target.Memory),
			IO:     minF(cur.IO, target.IO),
		}
		if intermediate != cur {
			shrinks = append(shrinks, change{v, intermediate})
		}
		if target != intermediate {
			grows = append(grows, change{v, target})
		}
	}
	for _, ch := range shrinks {
		if err := ch.v.SetShares(ch.target); err != nil {
			return err
		}
	}
	for _, ch := range grows {
		if err := ch.v.SetShares(ch.target); err != nil {
			return err
		}
	}
	return nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
