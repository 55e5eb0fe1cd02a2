package optimizer

import (
	"fmt"

	"dbvirt/internal/obs"
	"dbvirt/internal/plan"
)

// mOptimizeCalls counts every what-if planning invocation process-wide;
// together with core.whatif.cost_calls it shows how many plans each
// cost-model call amortizes over.
var mOptimizeCalls = obs.Global.Counter("optimizer.optimize.calls")

// Per enumeration: fraction.plans counts plans whose paths were chosen
// under a tuple fraction below 1 (a LIMIT nothing blocks), fraction.flips
// those of them where that choice differs from the cheapest-Total tree.
var (
	mFractionPlans = obs.Global.Counter("optimizer.fraction.plans")
	mFractionFlips = obs.Global.Counter("optimizer.fraction.flips")
)

// Plan is an optimized physical plan together with the query and parameter
// vector it was planned under.
type Plan struct {
	Root   Node
	Query  *plan.Query
	Params Params
}

// TotalCost returns the plan cost in seq-page units (additive, as used
// for plan ranking).
func (p *Plan) TotalCost() float64 { return p.Root.Cost().Total }

// EstimatedSeconds converts the plan cost to estimated execution seconds
// under the calibrated resource allocation, blending the CPU and I/O cost
// components with the machine's calibrated overlap factor.
func (p *Plan) EstimatedSeconds() float64 { return p.Params.EstimateSeconds(p.Root.Cost()) }

// NodeCost is one operator's entry in a Plan.CostBreakdown, in preorder.
type NodeCost struct {
	Name  string
	Depth int      // 0 = plan root
	Rows  float64  // estimated output cardinality
	Cost  Cost     // inclusive: children's costs are part of Total
	Self  float64  // Total minus the children's Totals (this operator's own work)
	Extra []string // operator detail (relation, predicates, keys)
}

// CostBreakdown decomposes the plan cost operator by operator: each node's
// inclusive cost plus the self cost obtained by subtracting its children.
// Self costs sum to the root's Total, so the breakdown shows where the
// optimizer thinks the time goes — the estimated counterpart of EXPLAIN
// ANALYZE's measured per-node usage.
func (p *Plan) CostBreakdown() []NodeCost {
	var out []NodeCost
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		c := n.Cost()
		self := c.Total
		for _, ch := range n.children() {
			self -= ch.Cost().Total
		}
		if self < 0 {
			self = 0
		}
		out = append(out, NodeCost{
			Name:  n.name(),
			Depth: depth,
			Rows:  n.Rows(),
			Cost:  c,
			Self:  self,
			Extra: n.detail(),
		})
		for _, ch := range n.children() {
			walk(ch, depth+1)
		}
	}
	walk(p.Root, 0)
	return out
}

// Optimize plans a bound query under the given parameter vector. This is
// the virtualization-aware what-if entry point: nothing is executed, and
// the same query can be re-planned under the calibrated P(R) of any
// candidate resource allocation.
func Optimize(q *plan.Query, p Params) (*Plan, error) {
	mOptimizeCalls.Inc()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return optimizeInto(&planCtx{q: q}, p, nil)
}

// optimizeInto runs the full enumeration under a plan context (with or
// without shared memos) and an optional choice recorder.
func optimizeInto(pc *planCtx, p Params, rec *recorder) (*Plan, error) {
	q := pc.q
	pc.frac = 1 // until optimizeJoins finds a LIMIT it can plan for
	var root Node
	var err error
	if q.OuterTree != nil {
		root, err = optimizeFixed(pc, p, rec)
	} else {
		root, err = optimizeJoins(pc, p, rec)
	}
	if err != nil {
		return nil, err
	}

	if q.Grouped {
		root = newHashAgg(root, q.GroupBy, q.Aggs, pc, p)
		if q.Having != nil {
			root = newFilter(root, []plan.Conjunct{{E: q.Having, Rels: plan.RelsOf(q.Having)}}, pc, p)
		}
	}

	root = newProject(root, q.Select, pc, p)

	if q.Distinct {
		visible := 0
		for _, c := range q.Select {
			if !c.Hidden {
				visible++
			}
		}
		if visible < len(q.Select) {
			return nil, fmt.Errorf("optimizer: DISTINCT with ORDER BY keys outside the select list is not supported")
		}
		root = newDistinct(root, visible, p)
	}

	if len(q.OrderBy) > 0 {
		keys := make([]SortKey, len(q.OrderBy))
		for i, ok := range q.OrderBy {
			keys[i] = SortKey{Col: ok.Col, Desc: ok.Desc}
		}
		root = newSort(root, keys, p)
	}

	if q.Limit != nil {
		root = newLimit(root, *q.Limit, pc.frac, p)
	}

	return &Plan{Root: root, Query: q, Params: p}, nil
}
