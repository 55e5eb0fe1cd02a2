package optimizer

import (
	"fmt"
	"math"

	"dbvirt/internal/catalog"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// keyRange is an int64 interval extracted from predicates on an indexed
// column, together with which conjuncts it absorbed. Contradictory
// predicates (col = 2.5 on an int column, col >= 10 AND col <= 5) leave
// lo > hi: an empty range, which the index scan probes and finds empty.
type keyRange struct {
	lo, hi       int64
	hasLo, hasHi bool
	// used has bit i set when conjunct i is absorbed by the range; the
	// conjuncts past the 64th never are, they stay residual filters.
	used uint64
}

func (r *keyRange) tightenLo(k int64) {
	if !r.hasLo || k > r.lo {
		r.lo, r.hasLo = k, true
	}
}

func (r *keyRange) tightenHi(k int64) {
	if !r.hasHi || k < r.hi {
		r.hi, r.hasHi = k, true
	}
}

func (r *keyRange) bounded() bool { return r.hasLo || r.hasHi }

// extractRange inspects the conjuncts for bounds on column col of
// relation rel.
func extractRange(rel, col int, conjs []plan.Conjunct) keyRange {
	var r keyRange
	for i, c := range conjs {
		if i < 64 && absorb(&r, rel, col, c.E) {
			r.used |= 1 << uint(i)
		}
	}
	return r
}

// absorb updates r if e is a usable bound on column col of relation rel,
// reporting whether e was fully absorbed.
func absorb(r *keyRange, rel, col int, e plan.Expr) bool {
	onIndexCol := func(ex plan.Expr) bool {
		c, ok := ex.(*plan.ColRef)
		return ok && c.Rel == rel && c.Col == col
	}
	switch x := e.(type) {
	case *plan.Bin:
		if !x.Op.Comparison() || x.Op == sql.OpNe {
			return false
		}
		if onIndexCol(x.L) {
			if v, ok := constNumeric(x.R); ok {
				absorbOp(r, x.Op, v)
				return true
			}
			return false
		}
		if onIndexCol(x.R) {
			if v, ok := constNumeric(x.L); ok {
				absorbOp(r, x.Op.Flip(), v)
				return true
			}
		}
		return false
	case *plan.Between:
		if x.NotB || !onIndexCol(x.E) {
			return false
		}
		lo, okLo := constNumeric(x.Lo)
		hi, okHi := constNumeric(x.Hi)
		if !okLo || !okHi {
			return false
		}
		r.tightenLo(ceilToInt(lo))
		r.tightenHi(floorToInt(hi))
		return true
	default:
		return false
	}
}

func constNumeric(e plan.Expr) (float64, bool) {
	c, ok := e.(*plan.Const)
	if !ok || c.Val.IsNull() {
		return 0, false
	}
	switch c.Val.Kind {
	case types.KindInt, types.KindDate, types.KindFloat:
		f, _ := c.Val.AsFloat()
		return f, true
	default:
		return 0, false
	}
}

func floorToInt(v float64) int64 { return int64(math.Floor(v)) }
func ceilToInt(v float64) int64  { return int64(math.Ceil(v)) }

// absorbOp applies "col op v" with the column on the left.
func absorbOp(r *keyRange, op sql.BinaryOp, v float64) {
	switch op {
	case sql.OpEq:
		// col >= v AND col <= v: a non-integral v yields lo > hi.
		r.tightenLo(ceilToInt(v))
		r.tightenHi(floorToInt(v))
	case sql.OpLt:
		r.tightenHi(ceilToInt(v) - 1)
	case sql.OpLe:
		r.tightenHi(floorToInt(v))
	case sql.OpGt:
		r.tightenLo(floorToInt(v) + 1)
	case sql.OpGe:
		r.tightenLo(ceilToInt(v))
	}
}

// rangeSelectivity estimates the fraction of rows inside the key range
// using the column's statistics.
func rangeSelectivity(rel *plan.Rel, ix *catalog.Index, r keyRange) float64 {
	if r.hasLo && r.hasHi && r.lo > r.hi {
		return 0
	}
	cs := statsFor(rel).Cols[ix.Col]
	// Point lookup: use equality selectivity (a histogram interval of
	// zero width would otherwise estimate zero rows).
	if r.hasLo && r.hasHi && r.lo == r.hi {
		return eqSelectivity(cs, float64(r.lo))
	}
	sel := 1.0
	if r.hasHi {
		sel = ltSelectivity(cs, float64(r.hi), true)
	} else {
		sel = clampSel(1 - cs.NullFrac)
	}
	if r.hasLo {
		sel -= ltSelectivity(cs, float64(r.lo), false)
	}
	return clampSel(sel)
}

// leadingMisses estimates the fraction of rel's heap a sequential scan
// reads before the first row inside the key range r of ix. The index
// correlation ANALYZE stores says how closely heap order follows key
// order: under positive correlation the rows below a lower bound come
// first, under negative correlation the rows above an upper bound do.
// corr² interpolates towards the uncorrelated heap, where matches are
// spread evenly and the first is found at once — the interpolation
// newIndexScan applies to heap I/O. r need not come from rel's own
// predicates: a range on a column equi-joined to ix's column keeps the
// rows outside it from reaching the output just the same.
func leadingMisses(rel *plan.Rel, ix *catalog.Index, r keyRange) float64 {
	if ix.Stats == nil {
		return 0
	}
	corr := ix.Stats.Correlation
	cs := statsFor(rel).Cols[ix.Col]
	var before float64
	switch {
	case corr > 0 && r.hasLo:
		before = ltSelectivity(cs, float64(r.lo), false)
	case corr < 0 && r.hasHi:
		before = 1 - cs.NullFrac - ltSelectivity(cs, float64(r.hi), true)
	}
	return clampSel(corr * corr * before)
}

// bestAccessPath chooses the cheapest way to read rel under the given
// single-relation conjuncts: a filtered sequential scan, an index scan
// for any index whose column has usable bounds, or — for derived tables —
// a scan over the independently optimized subquery.
//
// joinSkip is the sequential scan's leading-miss fraction already implied
// by the relation's join partners (joinOptimizer.impliedSkip).
func bestAccessPath(rel *plan.Rel, conjs []plan.Conjunct, joinSkip float64, pc *planCtx, p Params, rec *recorder) (cell, error) {
	if rel.Sub != nil {
		// The derived table's inner plan is optimized independently under
		// p. A prepared outer query prices it through the inner query's
		// own record, and remembers which inner enumeration this leaf was
		// built over so replay can tell when the inner shape has moved.
		var inner *Plan
		var innerEnum Node
		var err error
		if pc.subs != nil {
			var rec *enumRecord
			if inner, rec, err = pc.subs[rel.Idx].optimize(p, nil, nil); err == nil {
				innerEnum = rec.origRoot
			}
		} else {
			inner, err = Optimize(rel.Sub, p)
		}
		if err != nil {
			return cell{}, fmt.Errorf("optimizer: derived table %q: %w", rel.Name, err)
		}
		var node Node = newSubqueryScan(rel, inner, innerEnum, p)
		if len(conjs) > 0 {
			node = newFilter(node, conjs, pc, p)
		}
		return cell{total: node, frac: node}, nil
	}
	ch := startChoice(rec, pc.frac)
	ch.consider(newSeqScan(rel, conjs, seqSkip(rel, conjs, joinSkip), pc, p))
	for _, ix := range rel.Table.Indexes {
		if s := newIndexPath(rel, ix, conjs, nil, pc, p); s != nil {
			ch.consider(s)
		}
	}
	return ch.done(), nil
}

// seqSkip and newIndexPath derive the access-path estimates that read the
// literals, for enumeration and a literal replay (prepared.go) alike.
// seqSkip is the sequential scan's leading-miss fraction: it must pass the
// leading misses of every bounded index range, so the largest, or joinSkip,
// the fraction implied by the relation's join partners (impliedSkip).
func seqSkip(rel *plan.Rel, conjs []plan.Conjunct, joinSkip float64) float64 {
	skip := joinSkip
	for _, ix := range rel.Table.Indexes {
		if r := extractRange(rel.Idx, ix.Col, conjs); r.bounded() {
			skip = math.Max(skip, leadingMisses(rel, ix, r))
		}
	}
	return skip
}

// newIndexPath builds the index scan ix offers over rel's conjuncts, or
// nil when they bound no range on its column. prev, when non-nil, is the
// scan built under other literal values: its residual filter is reused,
// or nil returned when the range absorbs other conjuncts.
func newIndexPath(rel *plan.Rel, ix *catalog.Index, conjs []plan.Conjunct, prev *IndexScan, pc *planCtx, p Params) *IndexScan {
	r := extractRange(rel.Idx, ix.Col, conjs)
	if !r.bounded() {
		return nil
	}
	var residual []plan.Conjunct
	switch {
	case prev == nil:
		for i, c := range conjs {
			if r.used&(1<<uint(i)) == 0 { // 0 past bit 63
				residual = append(residual, c)
			}
		}
	case r.used == prev.keys.used:
		residual = prev.Filter
	default:
		return nil
	}
	return newIndexScan(rel, ix, r, rangeSelectivity(rel, ix, r), residual, pc, p)
}
