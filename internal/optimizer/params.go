// Package optimizer implements a System-R style cost-based query optimizer
// whose cost model mirrors PostgreSQL's: plan costs are expressed in units
// of one sequential page fetch and are parameterized by an environment
// vector P (random_page_cost, cpu_tuple_cost, cpu_index_tuple_cost,
// cpu_operator_cost, effective_cache_size, work_mem).
//
// The paper's key idea — the virtualization-aware what-if mode — is the
// Optimize entry point: it takes the parameter vector P explicitly, so the
// same query can be costed under the calibrated P(R) of any candidate
// resource allocation R without executing anything. TimePerSeqPage converts
// optimizer cost units into estimated seconds under that allocation.
package optimizer

import "fmt"

// Params is the optimizer's model of the physical environment — the set P
// of Section 4 of the paper. Costs of all plans are linear in these
// parameters, which is what makes calibration by solving linear systems
// possible.
type Params struct {
	// SeqPageCost is the cost of one sequential page fetch; by convention
	// it is the unit (1.0) and the other costs are relative to it.
	SeqPageCost float64
	// RandomPageCost is the cost of a non-sequential page fetch.
	RandomPageCost float64
	// CPUTupleCost is the CPU cost of processing one tuple.
	CPUTupleCost float64
	// CPUIndexTupleCost is the CPU cost of processing one index entry.
	CPUIndexTupleCost float64
	// CPUOperatorCost is the CPU cost of one operator or function call.
	CPUOperatorCost float64
	// EffectiveCacheSizePages is the planner's assumption about how many
	// pages of the workload stay cached (buffer pool) for repeated access.
	EffectiveCacheSizePages int64
	// WorkMemBytes bounds the memory of one sort or hash operation before
	// it spills.
	WorkMemBytes int64
	// TimePerSeqPage converts cost units to seconds: the measured wall
	// time of one sequential page fetch under the target resource
	// allocation. Zero means "unknown" (EstimateSeconds returns cost
	// units unchanged).
	TimePerSeqPage float64
	// Overlap in [0,1] is the calibrated fraction of CPU and I/O work
	// that proceeds concurrently on this machine (prefetching,
	// asynchronous I/O). It refines the what-if time estimate: an
	// I/O-bound plan's CPU cost is largely hidden under its I/O, so its
	// estimated time barely responds to the CPU share — which is what the
	// paper measures for TPC-H Q4. Zero reproduces the plain additive
	// PostgreSQL model.
	Overlap float64
	// TimePerLogFlush is the measured wall time of one WAL group fsync
	// under the target allocation, in seconds. It is the dominant cost of
	// a small committed write transaction, and — like TimePerSeqPage — it
	// scales with the inverse of the I/O share, which is what makes
	// write-bound tenants allocation-sensitive in a different regime than
	// read-bound ones. Zero means "unknown" (write-path estimates omit
	// the flush term).
	TimePerLogFlush float64
	// WriteAmp is the calibrated write amplification of the log path:
	// durable bytes written per logical tuple byte (log framing, torn-page
	// padding, deferred page rewrites). Used by write-path what-if
	// estimates; zero means "unknown".
	WriteAmp float64
}

// DefaultParams returns PostgreSQL's default cost parameters, a 4096-page
// (32 MiB) cache assumption, and 4 MiB work_mem.
func DefaultParams() Params {
	return Params{
		SeqPageCost:             1.0,
		RandomPageCost:          4.0,
		CPUTupleCost:            0.01,
		CPUIndexTupleCost:       0.005,
		CPUOperatorCost:         0.0025,
		EffectiveCacheSizePages: 4096,
		WorkMemBytes:            4 << 20,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.SeqPageCost <= 0:
		return fmt.Errorf("optimizer: SeqPageCost must be positive")
	case p.RandomPageCost <= 0:
		return fmt.Errorf("optimizer: RandomPageCost must be positive")
	case p.CPUTupleCost < 0 || p.CPUIndexTupleCost < 0 || p.CPUOperatorCost < 0:
		return fmt.Errorf("optimizer: CPU costs must be non-negative")
	case p.EffectiveCacheSizePages < 0:
		return fmt.Errorf("optimizer: EffectiveCacheSizePages must be non-negative")
	case p.WorkMemBytes <= 0:
		return fmt.Errorf("optimizer: WorkMemBytes must be positive")
	case p.TimePerSeqPage < 0:
		return fmt.Errorf("optimizer: TimePerSeqPage must be non-negative")
	case p.Overlap < 0 || p.Overlap > 1:
		return fmt.Errorf("optimizer: Overlap must be in [0,1]")
	case p.TimePerLogFlush < 0:
		return fmt.Errorf("optimizer: TimePerLogFlush must be non-negative")
	case p.WriteAmp < 0:
		return fmt.Errorf("optimizer: WriteAmp must be non-negative")
	}
	return nil
}

// EstimateWriteSeconds estimates the time of a write transaction that
// appends logBytes of tuple images and commits with flushes group fsyncs
// (typically 1) under this parameter vector. The log-byte term converts
// amplified bytes to sequential page time; the flush term is the measured
// commit latency. Requires Calibrated; returns 0 otherwise.
func (p Params) EstimateWriteSeconds(logBytes int64, flushes int) float64 {
	if !p.Calibrated() {
		return 0
	}
	amp := p.WriteAmp
	if amp <= 0 {
		amp = 1
	}
	pages := float64(logBytes) * amp / 8192
	return pages*p.TimePerSeqPage + float64(flushes)*p.TimePerLogFlush
}

// planShapeEqual reports whether two parameter vectors yield identical
// plan costs in cost units: every field except TimePerSeqPage and Overlap,
// which only affect the seconds conversion, never plan choice. When true,
// a plan tree optimized under one vector is verbatim optimal under the
// other — the tier-1 re-costing shortcut.
func (p Params) planShapeEqual(o Params) bool {
	return p.SeqPageCost == o.SeqPageCost &&
		p.RandomPageCost == o.RandomPageCost &&
		p.CPUTupleCost == o.CPUTupleCost &&
		p.CPUIndexTupleCost == o.CPUIndexTupleCost &&
		p.CPUOperatorCost == o.CPUOperatorCost &&
		p.EffectiveCacheSizePages == o.EffectiveCacheSizePages &&
		p.WorkMemBytes == o.WorkMemBytes
}

// Calibrated reports whether the seconds conversion is active: a vector
// without a measured TimePerSeqPage estimates in abstract cost units,
// not seconds, so estimate-vs-actual residuals are only meaningful when
// Calibrated is true.
func (p Params) Calibrated() bool { return p.TimePerSeqPage > 0 }

// EstimateSeconds converts a plan cost (in seq-page units) to estimated
// seconds using the calibrated time of one sequential page fetch. The
// cost's CPU component overlaps its I/O component by the calibrated
// Overlap factor, as on the real machine.
func (p Params) EstimateSeconds(cost Cost) float64 {
	cpu := cost.CPU
	io := cost.Total - cost.CPU
	if io < 0 {
		io = 0
	}
	lo := cpu
	if io < lo {
		lo = io
	}
	blended := cpu + io - p.Overlap*lo
	if p.TimePerSeqPage <= 0 {
		return blended
	}
	return blended * p.TimePerSeqPage
}

// Cost is a plan cost: Startup is paid before the first row is produced,
// Total is the cost of producing all rows. CPU is the portion of Total
// attributable to CPU work (the rest is I/O); the decomposition feeds the
// overlap-aware time estimate.
type Cost struct {
	Startup float64
	Total   float64
	CPU     float64
}

// Fractional is the cost of producing the fraction f of the rows: the
// startup cost plus f of the run cost, PostgreSQL's tuple_fraction. At
// f = 1 it is Total itself, not a sum that rounds to it.
func (c Cost) Fractional(f float64) float64 {
	if f >= 1 {
		return c.Total
	}
	return c.Startup + f*(c.Total-c.Startup)
}

// String formats the cost like PostgreSQL's EXPLAIN.
func (c Cost) String() string { return fmt.Sprintf("%.2f..%.2f", c.Startup, c.Total) }
