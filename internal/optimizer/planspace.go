package optimizer

import (
	"math"
	"sync"

	"dbvirt/internal/plan"
)

// planSpace holds the parameter-independent artifacts of one bound query —
// the "plan-space phase" of the what-if split (DESIGN.md §9). Everything
// here depends only on the query text and the catalog statistics, never on
// the cost parameter vector P, so it is computed once per PreparedQuery
// and shared by every Optimize/Recost under any candidate allocation,
// including concurrent calls from parallel solver workers.
type planSpace struct {
	mu  sync.RWMutex
	sel map[plan.Expr]float64 // selectivity per predicate tree
	ops map[plan.Expr]float64 // operator-unit estimate per expression

	// shareRows guards the cross-call cardinality memo. Derived tables
	// estimate their leaf cardinality from the optimized inner plan, whose
	// shape may change with P, so only subquery-free queries share rows.
	shareRows bool
	rowsDense []float64               // indexed by RelSet mask when n <= dpRelLimit
	rowsMap   map[plan.RelSet]float64 // beyond the DP limit (greedy queries)
}

func newPlanSpace(q *plan.Query) *planSpace {
	ps := &planSpace{
		sel:       make(map[plan.Expr]float64),
		ops:       make(map[plan.Expr]float64),
		shareRows: true,
	}
	for _, rel := range q.Rels {
		if rel.Sub != nil {
			ps.shareRows = false
		}
	}
	if ps.shareRows {
		if n := len(q.Rels); n <= dpRelLimit {
			ps.rowsDense = make([]float64, 1<<uint(n))
			for i := range ps.rowsDense {
				ps.rowsDense[i] = math.NaN()
			}
		} else {
			ps.rowsMap = make(map[plan.RelSet]float64)
		}
	}
	return ps
}

func (ps *planSpace) rowsGet(s plan.RelSet) (float64, bool) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	if ps.rowsDense != nil {
		v := ps.rowsDense[s]
		return v, !math.IsNaN(v)
	}
	v, ok := ps.rowsMap[s]
	return v, ok
}

func (ps *planSpace) rowsPut(s plan.RelSet, v float64) {
	ps.mu.Lock()
	if ps.rowsDense != nil {
		ps.rowsDense[s] = v
	} else {
		ps.rowsMap[s] = v
	}
	ps.mu.Unlock()
}

// planCtx bundles a bound query with its optional shared plan-space memos.
// With ps == nil (the plain Optimize path) every estimate is computed
// directly, keeping the one-shot path bit-identical to — and as lean as —
// the pre-memoization optimizer.
type planCtx struct {
	q  *plan.Query
	ps *planSpace
	// subs are the prepared inner queries of q's derived tables
	// (PreparedQuery.subs); nil on the plain Optimize path.
	subs []*PreparedQuery

	// frac is the query's tuple fraction (joinOptimizer.tupleFraction),
	// set before the first plan choice and handed to every chooser.
	frac float64

	// reuseLayout/haveLayout carry a layout the replayer lends to the next
	// node constructor. A replayed node has exactly the structure of the
	// node it rebuilds, so its derived layout is identical; sharing the old
	// node's (immutable) layout skips re-deriving the map. planCtx is
	// per-Optimize-call state, so the hand-off is single-threaded.
	reuseLayout plan.Layout
	haveLayout  bool
}

// lendLayout offers a layout to the next constructor that builds one.
func (pc *planCtx) lendLayout(l plan.Layout) { pc.reuseLayout, pc.haveLayout = l, true }

// takeLayout consumes a lent layout, if any.
func (pc *planCtx) takeLayout() (plan.Layout, bool) {
	if !pc.haveLayout {
		return plan.Layout{}, false
	}
	l := pc.reuseLayout
	pc.reuseLayout, pc.haveLayout = plan.Layout{}, false
	return l, true
}

// relLayout is a single-relation leaf layout, honoring a lent one.
func (pc *planCtx) relLayout(idx int) plan.Layout {
	if l, ok := pc.takeLayout(); ok {
		return l
	}
	return plan.SingleRel(idx)
}

// joinLayout is a merged join layout, honoring a lent one.
func (pc *planCtx) joinLayout(left, right Node) plan.Layout {
	if l, ok := pc.takeLayout(); ok {
		return l
	}
	return mergeLayouts(left, right)
}

// selectivity is the (optionally memoized) counterpart of the package
// function of the same name. Keys are expression pointers: bound queries
// are immutable, so pointer identity is expression identity.
func (pc *planCtx) selectivity(e plan.Expr) float64 {
	ps := pc.ps
	if ps == nil {
		return selectivity(e, pc.q)
	}
	ps.mu.RLock()
	v, ok := ps.sel[e]
	ps.mu.RUnlock()
	if ok {
		return v
	}
	v = selectivity(e, pc.q)
	ps.mu.Lock()
	ps.sel[e] = v
	ps.mu.Unlock()
	return v
}

// exprOps is the memoized counterpart of exprOps.
func (pc *planCtx) exprOps(e plan.Expr) float64 {
	ps := pc.ps
	if ps == nil {
		return exprOps(e, pc.q)
	}
	ps.mu.RLock()
	v, ok := ps.ops[e]
	ps.mu.RUnlock()
	if ok {
		return v
	}
	v = exprOps(e, pc.q)
	ps.mu.Lock()
	ps.ops[e] = v
	ps.mu.Unlock()
	return v
}

// predOps sums per-conjunct operator estimates (memoized per conjunct).
func (pc *planCtx) predOps(conjs []plan.Conjunct) float64 {
	var total float64
	for _, c := range conjs {
		total += pc.exprOps(c.E)
	}
	return total
}

// conjSel multiplies per-conjunct selectivities, clamped to [0, 1].
func (pc *planCtx) conjSel(conjs []plan.Conjunct) float64 {
	s := 1.0
	for _, c := range conjs {
		s *= pc.selectivity(c.E)
	}
	return clampSel(s)
}

// outputOps sums the operator estimates of the projection expressions.
func (pc *planCtx) outputOps(cols []plan.OutputCol) float64 {
	var total float64
	for _, c := range cols {
		total += pc.exprOps(c.E)
	}
	return total
}
