package executor

import (
	"dbvirt/internal/optimizer"
	"dbvirt/internal/vm"
)

// NodeStats records what one plan operator actually did during execution,
// for EXPLAIN ANALYZE.
type NodeStats struct {
	// Rows is the number of rows the operator produced.
	Rows int64
	// Loops counts how many times the operator was opened (rescans).
	Loops int64
	// Usage is the simulated VM usage charged while this operator (and,
	// as in PostgreSQL's "actual time", its children) was producing rows:
	// inclusive, measured as VM-clock deltas around each Next call.
	Usage vm.Usage
}

// Seconds returns the operator's inclusive simulated time under the
// machine's CPU/IO overlap factor — the "actual time" half of an
// estimate-vs-actual residual.
func (s *NodeStats) Seconds(overlap float64) float64 {
	if s == nil {
		return 0
	}
	return s.Usage.Elapsed(overlap)
}

// StatsCollector accumulates per-node execution statistics when attached
// to a Context.
type StatsCollector struct {
	byNode map[optimizer.Node]*NodeStats
}

// NewStatsCollector creates an empty collector.
func NewStatsCollector() *StatsCollector {
	return &StatsCollector{byNode: make(map[optimizer.Node]*NodeStats)}
}

// For returns the recorded statistics for a plan node (nil if the node
// never ran).
func (c *StatsCollector) For(n optimizer.Node) *NodeStats {
	if c == nil {
		return nil
	}
	return c.byNode[n]
}

// opened returns the stats cell for a node whose operator has just been
// built, creating it on first use. building is what constructing the
// operator (and, inside it, its children) charged the VM — an index scan
// descends its B+-tree when it is built — so that a node's inclusive usage
// leaves out nothing its subtree did.
func (c *StatsCollector) opened(n optimizer.Node, building vm.Usage) *NodeStats {
	st, ok := c.byNode[n]
	if !ok {
		st = &NodeStats{}
		c.byNode[n] = st
	}
	st.Loops++
	st.Usage = st.Usage.Add(building)
	return st
}
