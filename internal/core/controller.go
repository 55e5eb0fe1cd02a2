package core

import (
	"fmt"

	"dbvirt/internal/vm"
)

// ApplyShares is the actuator of the paper's Section 7 dynamic
// extension: after a re-solve for changed workloads it transitions the
// running VMs, matched to alloc positionally, to the new allocation
// without ever over-committing a resource: first every VM whose share
// shrinks is lowered, then the grown shares are raised. The caller
// serializes share changes on vms.
func ApplyShares(vms []*vm.VM, alloc Allocation) error {
	if len(vms) != len(alloc) {
		return fmt.Errorf("core: %d VMs for %d workloads", len(vms), len(alloc))
	}
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
