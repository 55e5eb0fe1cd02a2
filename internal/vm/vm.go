// Package vm simulates a virtual machine monitor (hypervisor) that
// partitions one physical machine's CPU, memory, and I/O bandwidth among
// virtual machines according to configurable shares.
//
// The simulator is deterministic: instead of consuming real wall-clock
// time, workloads charge abstract work units (CPU operations, page reads,
// page writes) to their VM, and the VM converts those units into simulated
// seconds using the machine's capacity scaled by the VM's resource shares.
// This mirrors the mechanisms of a share-based hypervisor scheduler such as
// Xen's credit scheduler: a VM with a 25% CPU share executes CPU work at a
// quarter of the machine rate, a VM with a 50% I/O share moves pages at
// half the disk rate, and a VM's memory share bounds how much RAM (buffer
// pool) it may use.
//
// Accounting is counter-based: Account* calls only accumulate exact work
// counters (ops, pages), and simulated seconds are derived lazily at
// Snapshot time by dividing each counter by the effective rate of the
// current share epoch. SetShares folds the seconds of the finished epoch
// into a running total and marks a new epoch. Because every charge in the
// engine is integer-valued, the counters are exact regardless of how work
// is grouped into Account* calls — charging 300 ops once per tuple or
// 300×n once per batch yields bit-identical derived seconds, which is what
// lets the vectorized executor keep costs bit-identical to tuple-at-a-time
// execution.
//
// Two second-order effects of real hypervisors are modeled because the
// paper's measurements depend on them:
//
//   - Scheduling overhead: when a VM holds less than the whole CPU, domain
//     switches, cache pollution, and dispatch latency waste a fraction of
//     its nominal share. This is the SchedOverhead knob; it makes observed
//     CPU slowdowns super-linear in 1/share, as in the paper's Figure 4
//     where TPC-H Q13 doubles its speed going from a 50% to a 75% share.
//   - Virtualized I/O cost: each I/O request costs extra CPU operations in
//     the VM (hypercall/domain-crossing overhead), the HypervisorIOOps knob.
package vm

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Resource identifies one of the physical resources whose share a VM holds.
type Resource int

// The resources controlled by the virtual machine monitor.
const (
	CPU Resource = iota
	Memory
	IO
	NumResources // number of controllable resources
)

// String returns the conventional lower-case name of the resource.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case IO:
		return "io"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// ParseResource parses a resource name as the CLIs and the HTTP API spell
// it: "cpu", "memory" (or "mem"), or "io", in any case.
func ParseResource(s string) (Resource, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "cpu":
		return CPU, nil
	case "memory", "mem":
		return Memory, nil
	case "io":
		return IO, nil
	}
	return 0, fmt.Errorf("unknown resource %q (want cpu, memory, or io)", s)
}

// Shares is one VM's fraction of each physical resource. Each component is
// in (0, 1]. Shares of all VMs on a machine should sum to at most 1 per
// resource; see Machine.ValidateShares.
type Shares struct {
	CPU    float64
	Memory float64
	IO     float64
}

// Equal splits every resource evenly across n virtual machines.
func Equal(n int) Shares {
	f := 1.0 / float64(n)
	return Shares{CPU: f, Memory: f, IO: f}
}

// Get returns the share of the given resource.
func (s Shares) Get(r Resource) float64 {
	switch r {
	case CPU:
		return s.CPU
	case Memory:
		return s.Memory
	case IO:
		return s.IO
	default:
		panic("vm: unknown resource " + r.String())
	}
}

// With returns a copy of s with the share of resource r replaced by v.
func (s Shares) With(r Resource, v float64) Shares {
	switch r {
	case CPU:
		s.CPU = v
	case Memory:
		s.Memory = v
	case IO:
		s.IO = v
	default:
		panic("vm: unknown resource " + r.String())
	}
	return s
}

// Valid reports whether every share is in (0, 1].
func (s Shares) Valid() bool {
	for r := Resource(0); r < NumResources; r++ {
		v := s.Get(r)
		if v <= 0 || v > 1 || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// String formats the shares as percentages.
func (s Shares) String() string {
	return fmt.Sprintf("cpu=%.0f%% mem=%.0f%% io=%.0f%%", s.CPU*100, s.Memory*100, s.IO*100)
}

// MachineConfig describes the capacity of the physical machine underneath
// the hypervisor. The defaults are loosely modeled on the paper's testbed
// (dual 2.8 GHz Xeon, 4 GB RAM, a single commodity disk), except that the
// memory size is an experiment parameter: the interesting regimes occur
// when some relations exceed the buffer pool.
type MachineConfig struct {
	// CPUOpsPerSec is the abstract CPU capacity of the whole machine.
	CPUOpsPerSec float64
	// SeqPagesPerSec is the sequential page-read rate of the disk.
	SeqPagesPerSec float64
	// RandPagesPerSec is the random page-read rate of the disk.
	RandPagesPerSec float64
	// WritePagesPerSec is the page-write rate of the disk.
	WritePagesPerSec float64
	// LogFlushSeconds is the latency of one write-ahead-log fsync
	// (command queuing, controller cache flush, rotational settle). It is
	// charged per commit flush, scaled by the VM's I/O share, and is what
	// makes commit-heavy OLTP tenants sensitive to the I/O allocation.
	LogFlushSeconds float64
	// MemBytes is the physical RAM available to be divided among VMs.
	MemBytes int64
	// HypervisorIOOps is the CPU-operation cost charged to a VM for every
	// I/O request, modeling hypercall and domain-crossing overhead.
	HypervisorIOOps float64
	// SchedOverhead in [0,1) models scheduler inefficiency at partial CPU
	// shares: the effective CPU rate of a VM with share s is
	// CPUOpsPerSec * s * (1 - SchedOverhead*(1-s)). At s=1 there is no
	// penalty. Larger values make CPU-bound slowdowns super-linear in
	// 1/s, as observed on real hypervisors.
	SchedOverhead float64
	// Overlap in [0,1] is the fraction of CPU and I/O time that can
	// proceed concurrently (prefetching, asynchronous I/O). 0 means fully
	// serial execution (elapsed = cpu + io); 1 means perfect overlap
	// (elapsed = max(cpu, io)).
	Overlap float64
}

// DefaultMachineConfig returns the configuration used throughout the
// experiments: 1e9 abstract ops/s, a 20 MB/s sequential disk (2560 8 KiB
// pages/s — commodity 2006 hardware under a hypervisor), 120 random
// pages/s, and 64 MiB of RAM. Memory is scaled down together with the
// workload data: what matters for the experiments is the ratio between
// relation sizes and the buffer pool, chosen so the TPC-H-like lineitem
// relation exceeds a half-machine buffer pool while orders+customer fit,
// just as the paper's 4 GB database related to its 2 GB VM.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{
		CPUOpsPerSec:     1e9,
		SeqPagesPerSec:   2560,
		RandPagesPerSec:  120,
		WritePagesPerSec: 2560,
		LogFlushSeconds:  0.004,
		MemBytes:         64 << 20,
		HypervisorIOOps:  2000,
		SchedOverhead:    0.65,
		Overlap:          0.75,
	}
}

// Validate reports whether the configuration is usable.
func (c MachineConfig) Validate() error {
	switch {
	case c.CPUOpsPerSec <= 0:
		return fmt.Errorf("vm: CPUOpsPerSec must be positive, got %g", c.CPUOpsPerSec)
	case c.SeqPagesPerSec <= 0:
		return fmt.Errorf("vm: SeqPagesPerSec must be positive, got %g", c.SeqPagesPerSec)
	case c.RandPagesPerSec <= 0:
		return fmt.Errorf("vm: RandPagesPerSec must be positive, got %g", c.RandPagesPerSec)
	case c.WritePagesPerSec <= 0:
		return fmt.Errorf("vm: WritePagesPerSec must be positive, got %g", c.WritePagesPerSec)
	case c.LogFlushSeconds < 0:
		return fmt.Errorf("vm: LogFlushSeconds must be non-negative, got %g", c.LogFlushSeconds)
	case c.MemBytes <= 0:
		return fmt.Errorf("vm: MemBytes must be positive, got %d", c.MemBytes)
	case c.HypervisorIOOps < 0:
		return fmt.Errorf("vm: HypervisorIOOps must be non-negative, got %g", c.HypervisorIOOps)
	case c.SchedOverhead < 0 || c.SchedOverhead >= 1:
		return fmt.Errorf("vm: SchedOverhead must be in [0,1), got %g", c.SchedOverhead)
	case c.Overlap < 0 || c.Overlap > 1:
		return fmt.Errorf("vm: Overlap must be in [0,1], got %g", c.Overlap)
	}
	return nil
}

// Machine is the simulated physical machine. VMs are created on it with
// NewVM; the machine tracks them so that over-commitment of shares can be
// detected.
type Machine struct {
	cfg MachineConfig

	mu  sync.Mutex
	vms []*VM
}

// NewMachine creates a machine with the given configuration.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg}, nil
}

// MustMachine is NewMachine that panics on configuration errors; intended
// for tests and examples with literal configs.
func MustMachine(cfg MachineConfig) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() MachineConfig { return m.cfg }

// validateSharesLocked checks total shares with exclude's current shares
// ignored (used when reconfiguring an existing VM).
func (m *Machine) validateSharesLocked(s Shares, exclude *VM) error {
	const eps = 1e-9
	for r := Resource(0); r < NumResources; r++ {
		total := s.Get(r)
		for _, v := range m.vms {
			if v == exclude {
				continue
			}
			total += v.Shares().Get(r)
		}
		if total > 1+eps {
			return fmt.Errorf("vm: resource %s over-committed: total share %.3f > 1", r, total)
		}
	}
	return nil
}

// NewVM creates a virtual machine with the given name and resource shares.
// It fails if the shares are invalid or would over-commit the machine.
func (m *Machine) NewVM(name string, s Shares) (*VM, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("vm: invalid shares %v for %q", s, name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.validateSharesLocked(s, nil); err != nil {
		return nil, fmt.Errorf("vm: cannot create %q: %w", name, err)
	}
	v := &VM{name: name, machine: m, shares: s}
	m.vms = append(m.vms, v)
	return v, nil
}

// Usage is a point-in-time snapshot of a VM's accumulated work, used to
// measure intervals: take a snapshot, run a workload, and subtract.
type Usage struct {
	CPUSeconds float64 // simulated seconds of CPU time
	IOSeconds  float64 // simulated seconds of I/O time
	CPUOps     float64 // raw CPU operations charged
	SeqReads   int64   // sequential page reads
	RandReads  int64   // random page reads
	Writes     int64   // page writes
	LogFlushes int64   // write-ahead-log fsyncs
}

// Elapsed returns the simulated wall-clock seconds corresponding to this
// usage under the machine's CPU/I-O overlap model.
func (u Usage) Elapsed(overlap float64) float64 {
	lo := math.Min(u.CPUSeconds, u.IOSeconds)
	return u.CPUSeconds + u.IOSeconds - overlap*lo
}

// Sub returns the usage accumulated between snapshot o (earlier) and u.
func (u Usage) Sub(o Usage) Usage {
	return Usage{
		CPUSeconds: u.CPUSeconds - o.CPUSeconds,
		IOSeconds:  u.IOSeconds - o.IOSeconds,
		CPUOps:     u.CPUOps - o.CPUOps,
		SeqReads:   u.SeqReads - o.SeqReads,
		RandReads:  u.RandReads - o.RandReads,
		Writes:     u.Writes - o.Writes,
		LogFlushes: u.LogFlushes - o.LogFlushes,
	}
}

// Add returns the component-wise sum of u and o; used to accumulate
// per-interval deltas (e.g. EXPLAIN ANALYZE's per-operator usage).
func (u Usage) Add(o Usage) Usage {
	return Usage{
		CPUSeconds: u.CPUSeconds + o.CPUSeconds,
		IOSeconds:  u.IOSeconds + o.IOSeconds,
		CPUOps:     u.CPUOps + o.CPUOps,
		SeqReads:   u.SeqReads + o.SeqReads,
		RandReads:  u.RandReads + o.RandReads,
		Writes:     u.Writes + o.Writes,
		LogFlushes: u.LogFlushes + o.LogFlushes,
	}
}

// VM is a virtual machine: a set of resource shares plus a simulated clock
// that accumulates the cost of work charged to it. A VM is not safe for
// concurrent use by multiple goroutines; each simulated workload drives its
// VM from one goroutine (distinct VMs may run in parallel).
//
// Work is recorded as exact counters; seconds are derived on Snapshot from
// the counters accumulated in the current share epoch, plus the folded
// seconds of earlier epochs (see SetShares).
type VM struct {
	name    string
	machine *Machine

	mu     sync.RWMutex // guards shares (reconfigurable at runtime)
	shares Shares

	// Work counters. Every charge in the engine is integer-valued, so
	// these sums are exact and independent of charge granularity.
	cpuOps     float64
	seqReads   int64
	randReads  int64
	writes     int64
	logFlushes int64

	// foldedCPU/foldedIO are the derived seconds of completed share
	// epochs; the *Mark fields are the counter values at the start of the
	// current epoch.
	foldedCPU float64
	foldedIO  float64
	cpuMark   float64
	seqMark   int64
	randMark  int64
	writeMark int64
	flushMark int64
}

// Machine returns the physical machine hosting this VM.
func (v *VM) Machine() *Machine { return v.machine }

// Shares returns the VM's current resource shares.
func (v *VM) Shares() Shares {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.shares
}

// SetShares reconfigures the VM's resource shares at runtime (the dynamic
// reallocation mechanism of the paper's Section 7). It fails if the new
// shares would over-commit the machine. The seconds of the finished share
// epoch are folded into the VM's running totals before the new shares take
// effect, so work charged before the change is priced at the old rates.
func (v *VM) SetShares(s Shares) error {
	if !s.Valid() {
		return fmt.Errorf("vm: invalid shares %v for %q", s, v.name)
	}
	v.machine.mu.Lock()
	defer v.machine.mu.Unlock()
	if err := v.machine.validateSharesLocked(s, v); err != nil {
		return fmt.Errorf("vm: cannot reconfigure %q: %w", v.name, err)
	}
	v.mu.Lock()
	cpu, io := v.pendingLocked()
	v.foldedCPU += cpu
	v.foldedIO += io
	v.cpuMark = v.cpuOps
	v.seqMark = v.seqReads
	v.randMark = v.randReads
	v.writeMark = v.writes
	v.flushMark = v.logFlushes
	v.shares = s
	v.mu.Unlock()
	return nil
}

// MemBytes returns the RAM available to this VM: its memory share of the
// machine's physical memory.
func (v *VM) MemBytes() int64 {
	return int64(float64(v.machine.cfg.MemBytes) * v.Shares().Memory)
}

// effCPURateFor is the effective CPU rate in ops/s at share s, including
// the scheduler-overhead penalty for partial shares.
func effCPURateFor(cfg MachineConfig, s float64) float64 {
	return cfg.CPUOpsPerSec * s * (1 - cfg.SchedOverhead*(1-s))
}

// pendingLocked derives the CPU and I/O seconds of the work charged in the
// current share epoch. Caller holds v.mu (read or write).
func (v *VM) pendingLocked() (cpuSec, ioSec float64) {
	cfg := v.machine.cfg
	cpuSec = (v.cpuOps - v.cpuMark) / effCPURateFor(cfg, v.shares.CPU)
	ioShare := v.shares.IO
	ioSec = float64(v.seqReads-v.seqMark)/(cfg.SeqPagesPerSec*ioShare) +
		float64(v.randReads-v.randMark)/(cfg.RandPagesPerSec*ioShare) +
		float64(v.writes-v.writeMark)/(cfg.WritePagesPerSec*ioShare) +
		float64(v.logFlushes-v.flushMark)*cfg.LogFlushSeconds/ioShare
	return cpuSec, ioSec
}

// AccountCPU charges n abstract CPU operations to the VM.
func (v *VM) AccountCPU(ops float64) {
	if ops <= 0 {
		return
	}
	v.cpuOps += ops
}

// AccountSeqRead charges sequential page reads (plus the hypervisor's
// per-request CPU overhead).
func (v *VM) AccountSeqRead(pages int) {
	if pages <= 0 {
		return
	}
	v.seqReads += int64(pages)
	v.cpuOps += v.machine.cfg.HypervisorIOOps * float64(pages)
}

// AccountRandRead charges random page reads.
func (v *VM) AccountRandRead(pages int) {
	if pages <= 0 {
		return
	}
	v.randReads += int64(pages)
	v.cpuOps += v.machine.cfg.HypervisorIOOps * float64(pages)
}

// AccountWrite charges page writes.
func (v *VM) AccountWrite(pages int) {
	if pages <= 0 {
		return
	}
	v.writes += int64(pages)
	v.cpuOps += v.machine.cfg.HypervisorIOOps * float64(pages)
}

// AccountLogFlush charges write-ahead-log fsyncs (plus the hypervisor's
// per-request CPU overhead).
func (v *VM) AccountLogFlush(flushes int) {
	if flushes <= 0 {
		return
	}
	v.logFlushes += int64(flushes)
	v.cpuOps += v.machine.cfg.HypervisorIOOps * float64(flushes)
}

// Snapshot returns the VM's accumulated usage so far, deriving seconds
// from the work counters.
func (v *VM) Snapshot() Usage {
	v.mu.RLock()
	defer v.mu.RUnlock()
	cpu, io := v.pendingLocked()
	return Usage{
		CPUSeconds: v.foldedCPU + cpu,
		IOSeconds:  v.foldedIO + io,
		CPUOps:     v.cpuOps,
		SeqReads:   v.seqReads,
		RandReads:  v.randReads,
		Writes:     v.writes,
		LogFlushes: v.logFlushes,
	}
}

// Since returns the usage accumulated since the given snapshot.
func (v *VM) Since(start Usage) Usage { return v.Snapshot().Sub(start) }

// ElapsedSince returns the simulated wall-clock seconds between the given
// snapshot and now.
func (v *VM) ElapsedSince(start Usage) float64 {
	return v.Snapshot().Sub(start).Elapsed(v.machine.cfg.Overlap)
}
