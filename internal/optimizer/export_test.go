package optimizer

import (
	"fmt"

	"dbvirt/internal/plan"
)

// AccessPathPlans plans a single-table LIMIT query and returns the
// complete plan over each access path its chooser compared (sequential
// scan first), the index of the one it chose and the query's tuple
// fraction.
func AccessPathPlans(q *plan.Query, p Params) (plans []*Plan, chosen int, frac float64, err error) {
	pc := &planCtx{q: q}
	rec := &recorder{}
	if _, err := optimizeInto(pc, p, rec); err != nil {
		return nil, 0, 0, err
	}
	if len(q.Rels) != 1 || q.Limit == nil || len(rec.choices) != 1 {
		return nil, 0, 0, fmt.Errorf("not a single-table LIMIT query: %d choice points", len(rec.choices))
	}
	cp := rec.choices[0]
	for _, cand := range cp.cands {
		root := newLimit(newProject(cand, q.Select, pc, p), *q.Limit, pc.frac, p)
		plans = append(plans, &Plan{Root: root, Query: q, Params: p})
	}
	return plans, cp.fwinner, pc.frac, nil
}

// TotalCostPlan plans q with every choice made on Total and the Limit put
// on afterwards — path choice as it was before tuple fractions.
func TotalCostPlan(q *plan.Query, p Params) (*Plan, error) {
	unlimited := *q
	unlimited.Limit = nil
	pl, err := Optimize(&unlimited, p)
	if err != nil {
		return nil, err
	}
	return &Plan{Root: newLimit(pl.Root, *q.Limit, 1, p), Query: q, Params: p}, nil
}
