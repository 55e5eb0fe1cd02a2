package optimizer

import (
	"sync/atomic"

	"dbvirt/internal/obs"
	"dbvirt/internal/plan"
	"dbvirt/internal/types"
)

// Counters exposing the re-costing hit rate (what-if calls and session
// statements): fast counts plans re-priced from the recorded plan space
// (O(nodes) work), full counts complete enumerations. A healthy grid sweep
// or design search should be dominated by fast.
var (
	mRecostFast = obs.Global.Counter("whatif.recost.fast")
	mRecostFull = obs.Global.Counter("whatif.recost.full")
)

// PreparedQuery is a bound query plus its memoized plan space. Preparing
// once and calling Optimize per candidate parameter vector is the cheap
// way to sweep allocations: the first call enumerates and records the
// search; later calls only re-price. A PreparedQuery without parameters
// is safe for concurrent use by parallel solver workers.
type PreparedQuery struct {
	q   *plan.Query
	ps  *planSpace
	rec atomic.Pointer[enumRecord]
	// subs holds the prepared inner query of each derived table, indexed
	// like q.Rels (nil for base relations; the slice itself is nil when
	// the query has none).
	subs   []*PreparedQuery
	params []plan.Param // see Prepare
}

// Prepare wraps a bound query for repeated optimization. params are the
// constants its owner (a statement template) rewrites between calls,
// derived tables' included; nil for a what-if query. A query with
// parameters keeps no plan-space memo: any estimate may read one. Derived
// tables are prepared recursively, so an inner plan is re-priced from its
// own recorded plan space just as the outer one is.
func Prepare(q *plan.Query, params []plan.Param) *PreparedQuery {
	pq := &PreparedQuery{q: q, params: params}
	if len(params) == 0 {
		pq.ps = newPlanSpace(q)
	}
	for i, rel := range q.Rels {
		if rel.Sub != nil {
			if pq.subs == nil {
				pq.subs = make([]*PreparedQuery, len(q.Rels))
			}
			pq.subs[i] = Prepare(rel.Sub, params)
		}
	}
	return pq
}

// enumRecord is an immutable snapshot of one enumeration outcome: the
// parameter vector and constants' values (lits) it is priced under,
// every argmin the original search resolved (in bottom-up order), and
// the winning plan tree. Snapshots are swapped atomically so concurrent
// readers always see a consistent record. The recorder and origRoot
// always come from the one full enumeration and are shared unchanged by
// every record a replay derives, keeping their node pointers aligned
// (replay memoizes rebuilt subtrees by the original pointers); root is
// the tree priced under params — identical to origRoot in a
// full-enumeration record, a rebuilt copy in a replayed one. frac is the
// query's tuple fraction (independent of P, not of the literals), the
// comparator every choice point's fwinner was resolved under.
type enumRecord struct {
	*recorder
	params   Params
	lits     []types.Value
	origRoot Node
	root     Node
	frac     float64
}

// sameLiterals reports whether the parameter constants still hold the
// values the record was priced under.
func (rec *enumRecord) sameLiterals(params []plan.Param) bool {
	for i, pm := range params {
		if pm.Const.Val != rec.lits[i] {
			return false
		}
	}
	return true
}

// choicePoint is one argmin the enumerator resolved: the candidate nodes
// in comparison order, the index that won on Total and the index that
// won under the query's tuple fraction (the same index when the
// fraction is 1). The candidate *set* is parameter-independent given
// that all earlier (lower) choice points resolved the same way — which
// is exactly what replay verifies.
type choicePoint struct {
	cands   []Node
	winner  int
	fwinner int
}

// recorder accumulates choice points during a full enumeration, and its
// WHERE conjunct classes.
type recorder struct {
	choices []choicePoint
	classes conjClasses
}

// cheaper is the optimizer's one cost comparison, for a consumer that
// stops after the fraction f of a path's rows (a LIMIT with nothing
// blocking below it). At f = 1 it compares Total with Total, so plans
// nobody truncates rank exactly as they always have.
func cheaper(a, b Cost, f float64) bool { return a.Fractional(f) < b.Fractional(f) }

// cell is the outcome of one plan choice: the cheapest candidate on
// Total and the cheapest under the query's tuple fraction. The two are
// the same node when the fraction is 1.
type cell struct{ total, frac Node }

// alts lists the cell's distinct trees, cheapest-Total first.
func (c *cell) alts() []Node {
	if c.frac == c.total {
		return []Node{c.total}
	}
	return []Node{c.total, c.frac}
}

// chooser folds the optimizer's standard argmin — strict <, first
// candidate wins ties — over a candidate list, once on Total and once
// under the tuple fraction f, recording the list when a recorder is
// attached. All plan-choice sites, and replay, route through it so the
// recorded comparison order matches enumeration exactly.
type chooser struct {
	rec      *recorder
	f        float64
	cands    []Node
	best     cell
	bestIdx  int
	fbestIdx int
	n        int
}

func startChoice(rec *recorder, f float64) chooser {
	return chooser{rec: rec, f: f, bestIdx: -1, fbestIdx: -1}
}

func (c *chooser) consider(n Node) {
	if c.best.total == nil || cheaper(n.Cost(), c.best.total.Cost(), 1) {
		c.best.total, c.bestIdx = n, c.n
	}
	if c.best.frac == nil || cheaper(n.Cost(), c.best.frac.Cost(), c.f) {
		c.best.frac, c.fbestIdx = n, c.n
	}
	c.n++
	if c.rec != nil {
		c.cands = append(c.cands, n)
	}
}

// considerCell offers both trees of a lower choice.
func (c *chooser) considerCell(in cell) {
	c.consider(in.total)
	if in.frac != in.total {
		c.consider(in.frac)
	}
}

func (c *chooser) done() cell {
	if c.rec != nil && c.n > 0 {
		c.rec.choices = append(c.rec.choices, choicePoint{cands: c.cands, winner: c.bestIdx, fwinner: c.fbestIdx})
	}
	return c.best
}

// Optimize plans the prepared query under p and the current values of its
// parameter constants via the two-tier fast path:
//
//	tier 1: the constants hold the recorded values and p agrees with the
//	        recorded vector on every plan-shaping field (only the seconds
//	        conversion differs) — reuse the recorded tree outright.
//	tier 2: re-price each recorded choice point's candidates under p and
//	        the constants, and verify the same candidate still dominates;
//	        all winners unchanged means the recorded shape is provably the
//	        optimum, so only the O(nodes) re-pricing was paid.
//
// Any flipped winner — in this query or in a derived table's inner
// query, whose shape decides this one's leaf — falls back to full
// enumeration and records a fresh snapshot, as does a moved constant in a
// query over more than one relation or a derived table (replay passes its
// join and derived-table cardinalities through, which read old values).
func (pq *PreparedQuery) Optimize(p Params) (*Plan, error) {
	pl, _, err := pq.optimize(p, mRecostFast, mRecostFull)
	return pl, err
}

// optimize is Optimize returning the record the plan belongs to as well,
// which names the enumeration the plan's shape comes from. A derived
// table's inner query passes nil counters: whatif.recost.* count
// statements, and the inner call is part of pricing the outer one.
func (pq *PreparedQuery) optimize(p Params, fast, full *obs.Counter) (*Plan, *enumRecord, error) {
	mOptimizeCalls.Inc()
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if rec := pq.rec.Load(); rec != nil {
		moved := !rec.sameLiterals(pq.params)
		if !moved && p.planShapeEqual(rec.params) {
			fast.Inc()
			return &Plan{Root: rec.root, Query: pq.q, Params: p}, rec, nil
		}
		if !moved || len(pq.q.Rels) == 1 && pq.subs == nil {
			if root, frac, ok := replay(rec, pq, p, moved); ok {
				fast.Inc()
				if !moved {
					rec = &enumRecord{recorder: rec.recorder, params: p, lits: rec.lits, origRoot: rec.origRoot, root: root, frac: frac}
					pq.rec.Store(rec)
				}
				return &Plan{Root: root, Query: pq.q, Params: p}, rec, nil
			}
		}
	}
	full.Inc()
	pc := &planCtx{q: pq.q, ps: pq.ps, subs: pq.subs}
	choices := &recorder{}
	pl, err := optimizeInto(pc, p, choices)
	if err != nil {
		return nil, nil, err
	}
	lits := make([]types.Value, len(pq.params))
	for i, pm := range pq.params {
		lits[i] = pm.Const.Val
	}
	next := &enumRecord{recorder: choices, params: p, lits: lits, origRoot: pl.Root, root: pl.Root, frac: pc.frac}
	pq.rec.Store(next)
	return pl, next, nil
}

// replay re-resolves every recorded choice point under new parameters.
// Candidates are rebuilt bottom-up (children of later candidates are the
// already-verified winners of earlier choice points), so a full pass with
// no flipped winner reconstructs, node for node, what a from-scratch
// enumeration under p would have built — at O(total candidates) instead
// of O(3^n) subset splits.
// A successful replay returns the re-priced root and its tuple fraction,
// which the caller publishes as a record under p so a repeated statement
// next takes tier 1. moved says the constants changed since the record
// (allowed for one base relation only): the replay then also re-derives
// every estimate that reads one — the tuple fraction, each conjunct's
// selectivity, each index scan's key range and the sequential scan's
// leading misses — and the caller publishes nothing, as the next
// statement of a template rarely repeats the values.
func replay(rec *enumRecord, pq *PreparedQuery, p Params, moved bool) (root Node, frac float64, ok bool) {
	r := &replayer{pc: planCtx{q: pq.q, ps: pq.ps, subs: pq.subs}, p: p, frac: rec.frac}
	if moved {
		r.moved = &rec.classes
		if pq.q.Limit != nil { // re-derive the tuple fraction as enumeration does
			pc := r.pc
			jo := getJoinOptimizer(&pc, p, nil)
			jo.conjClasses = rec.classes
			jo.estimate()
			jo.release()
			r.frac = pc.frac
		}
	}
	for _, cp := range rec.choices {
		ch := startChoice(nil, r.frac)
		for _, cand := range cp.cands {
			nc := r.rebuild(cand)
			if nc == nil {
				return nil, 0, false
			}
			ch.consider(nc)
		}
		if ch.bestIdx != cp.winner || ch.fbestIdx != cp.fwinner {
			return nil, 0, false
		}
	}
	root = r.rebuild(rec.origRoot)
	return root, r.frac, root != nil
}

// replayer rebuilds recorded nodes under new parameters, memoizing by the
// old node's pointer identity so shared subtrees are re-priced once (the
// first entries in an array, enough for one relation; the rest in a
// map). moved holds the recorded conjunct classes when the constants
// moved; frac is the tuple fraction the nodes are priced under.
type replayer struct {
	small [8]struct{ old, new Node }
	n     int
	memo  map[Node]Node
	pc    planCtx
	p     Params
	moved *conjClasses
	frac  float64
}

func (r *replayer) rebuild(n Node) Node {
	for i := 0; i < r.n; i++ {
		if r.small[i].old == n {
			return r.small[i].new
		}
	}
	if nn, ok := r.memo[n]; ok {
		return nn
	}
	nn := r.rebuildNode(n)
	switch {
	case nn == nil:
	case r.n < len(r.small):
		r.small[r.n].old, r.small[r.n].new = n, nn
		r.n++
	default:
		if r.memo == nil {
			r.memo = make(map[Node]Node)
		}
		r.memo[n] = nn
	}
	return nn
}

// rebuildNode re-runs the original node constructor with the old node's
// structural fields and the new parameter vector, producing exactly the
// node a fresh enumeration would. Children are accessed directly per
// kind (no children() slice), and the old node's layout is lent to the
// constructor: both are parameter-independent, as are the join rows
// passed through from the old node — a derived table's row estimate
// follows its inner plan's shape, and the SubqueryScan case gives up
// when that shape moved. Scans re-derive what reads the constants when
// they moved. A nil return means the node cannot be replayed and the
// caller must fall back to enumeration.
func (r *replayer) rebuildNode(old Node) Node {
	pc, p := &r.pc, r.p
	switch n := old.(type) {
	case *SeqScan:
		skip := n.skipFrac
		if r.moved != nil {
			skip = seqSkip(n.Rel, n.Filter, 0) // one relation: no join partner implies a skip
		}
		pc.lendLayout(n.layout)
		return newSeqScan(n.Rel, n.Filter, skip, pc, p)
	case *IndexScan:
		pc.lendLayout(n.layout)
		if r.moved == nil {
			return newIndexScan(n.Rel, n.Index, n.keys, n.rangeSel, n.Filter, pc, p)
		}
		if s := newIndexPath(n.Rel, n.Index, r.moved.singleConjs[n.Rel.Idx], n, pc, p); s != nil {
			return s
		}
		return nil // the replay fails; its lent layout dies with it
	case *FilterNode:
		in := r.rebuild(n.Input)
		if in == nil {
			return nil
		}
		return newFilter(in, n.Conds, pc, p)
	case *NLJoin:
		outer, inner := r.rebuild(n.Outer), r.rebuild(n.Inner)
		if outer == nil || inner == nil {
			return nil
		}
		pc.lendLayout(n.layout)
		return newNLJoin(n.Type, outer, inner, n.On, n.Rows(), pc, p)
	case *HashJoin:
		left, right := r.rebuild(n.Left), r.rebuild(n.Right)
		if left == nil || right == nil {
			return nil
		}
		pc.lendLayout(n.layout)
		return newHashJoin(n.Type, left, right, n.LeftKeys, n.RightKeys, n.Residual, n.Rows(), n.BuildOuter, pc, p)
	case *MergeJoin:
		left, right := r.rebuild(n.Left), r.rebuild(n.Right)
		if left == nil || right == nil {
			return nil
		}
		pc.lendLayout(n.layout)
		return newMergeJoin(n.Type, left, right, n.LeftCols, n.RightCols, n.Residual, n.Rows(), pc, p)
	case *IndexNLJoin:
		outer := r.rebuild(n.Outer)
		if outer == nil {
			return nil
		}
		pc.lendLayout(n.layout)
		return newIndexNLJoin(n.Type, outer, n.InnerRel, n.Index, n.OuterKey, n.InnerFilter, n.Residual, n.Rows(), pc, p)
	case *Sort:
		in := r.rebuild(n.Input)
		if in == nil {
			return nil
		}
		return newSort(in, n.Keys, p)
	case *HashAgg:
		in := r.rebuild(n.Input)
		if in == nil {
			return nil
		}
		pc.lendLayout(n.layout)
		return newHashAgg(in, n.GroupBy, n.Aggs, pc, p)
	case *Project:
		in := r.rebuild(n.Input)
		if in == nil {
			return nil
		}
		pc.lendLayout(n.layout)
		return newProject(in, n.Cols, pc, p)
	case *Distinct:
		in := r.rebuild(n.Input)
		if in == nil {
			return nil
		}
		return newDistinct(in, n.VisibleCols, p)
	case *Limit:
		in := r.rebuild(n.Input)
		if in == nil {
			return nil
		}
		return newLimit(in, n.N, r.frac, p)
	case *SubqueryScan:
		// The inner query is re-priced through its own record. The outer
		// candidates were built over the inner shape of enumeration
		// n.innerEnum; they stand only while the inner winners re-verify
		// under p, that is while the inner plan still belongs to it.
		inner, rec, err := pc.subs[n.Rel.Idx].optimize(p, nil, nil)
		if err != nil || rec.origRoot != n.innerEnum {
			return nil
		}
		return newSubqueryScan(n.Rel, inner, rec.origRoot, p)
	default:
		return nil
	}
}
