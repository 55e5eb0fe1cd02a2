package core

import (
	"fmt"

	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
)

// Deployment is a set of workloads running in VMs on one machine under a
// chosen allocation.
type Deployment struct {
	VMs      []*vm.VM
	Sessions []*engine.Session
	Specs    []*WorkloadSpec
}

// Deploy provisions one VM per workload with the given allocation and
// opens a session on each workload's database.
func Deploy(machineCfg vm.MachineConfig, engCfg engine.Config, specs []*WorkloadSpec, alloc Allocation) (*Deployment, error) {
	if len(specs) != len(alloc) {
		return nil, fmt.Errorf("core: %d workloads but %d allocations", len(specs), len(alloc))
	}
	m, err := vm.NewMachine(machineCfg)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Specs: specs}
	for i, spec := range specs {
		v, err := m.NewVM(spec.Name, alloc[i])
		if err != nil {
			return nil, fmt.Errorf("core: provisioning %s: %w", spec.Name, err)
		}
		s, err := engine.NewSession(spec.DB, v, engCfg)
		if err != nil {
			return nil, err
		}
		d.VMs = append(d.VMs, v)
		d.Sessions = append(d.Sessions, s)
	}
	return d, nil
}

// MeasureWorkloads runs every workload once in its VM (after an optional
// warmup pass) and returns the simulated elapsed seconds per workload.
// Because the hypervisor's shares fully determine each VM's effective
// rates, the workloads are independent and can be run back to back.
func (d *Deployment) MeasureWorkloads(warmup bool) ([]float64, error) {
	out := make([]float64, len(d.Specs))
	for i, spec := range d.Specs {
		if warmup {
			if _, err := d.Sessions[i].RunWorkload(spec.Statements); err != nil {
				return nil, fmt.Errorf("core: warmup %s: %w", spec.Name, err)
			}
		}
		elapsed, err := d.Sessions[i].RunWorkload(spec.Statements)
		if err != nil {
			return nil, fmt.Errorf("core: measuring %s: %w", spec.Name, err)
		}
		out[i] = elapsed
	}
	return out, nil
}

// MeasureAllocation is the one-shot form: deploy, warm up, and measure
// every workload under the allocation.
func MeasureAllocation(machineCfg vm.MachineConfig, engCfg engine.Config, specs []*WorkloadSpec, alloc Allocation) ([]float64, error) {
	d, err := Deploy(machineCfg, engCfg, specs, alloc)
	if err != nil {
		return nil, err
	}
	return d.MeasureWorkloads(true)
}
