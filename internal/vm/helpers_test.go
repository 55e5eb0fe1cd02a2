package vm

import "fmt"

// ValidateShares reports an error if adding a VM with shares s would
// over-commit any resource, taking the existing VMs into account.
func (m *Machine) ValidateShares(s Shares) error {
	if !s.Valid() {
		return fmt.Errorf("vm: invalid shares %v", s)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.validateSharesLocked(s, nil)
}

// Elapsed returns the total simulated wall-clock seconds of the VM under
// the machine's overlap model.
func (v *VM) Elapsed() float64 { return v.Snapshot().Elapsed(v.machine.cfg.Overlap) }

// Rates describes the effective resource rates a VM sees under its current
// shares.
type Rates struct {
	CPUOpsPerSec     float64
	SeqPagesPerSec   float64
	RandPagesPerSec  float64
	WritePagesPerSec float64
}

// EffectiveRates returns the VM's effective rates under its current shares.
func (v *VM) EffectiveRates() Rates {
	cfg := v.machine.cfg
	s := v.Shares()
	return Rates{
		CPUOpsPerSec:     effCPURateFor(cfg, s.CPU),
		SeqPagesPerSec:   cfg.SeqPagesPerSec * s.IO,
		RandPagesPerSec:  cfg.RandPagesPerSec * s.IO,
		WritePagesPerSec: cfg.WritePagesPerSec * s.IO,
	}
}
