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
	lo, hi *Bound
	used   map[int]bool // conjunct list indexes absorbed by the range
}

func (r *keyRange) tightenLo(k int64) {
	if r.lo == nil || k > r.lo.Key {
		r.lo = &Bound{Key: k}
	}
}

func (r *keyRange) tightenHi(k int64) {
	if r.hi == nil || k < r.hi.Key {
		r.hi = &Bound{Key: k}
	}
}

func (r *keyRange) bounded() bool { return r.lo != nil || r.hi != nil }

// extractRange inspects the conjuncts for bounds on column col of
// relation rel.
func extractRange(rel, col int, conjs []plan.Conjunct) keyRange {
	r := keyRange{used: make(map[int]bool)}
	for i, c := range conjs {
		if absorb(&r, rel, col, c.E) {
			r.used[i] = true
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
func rangeSelectivity(rel *plan.Rel, ix *catalog.Index, r keyRange, q *plan.Query) float64 {
	if r.lo != nil && r.hi != nil && r.lo.Key > r.hi.Key {
		return 0
	}
	cs := statsFor(rel).Cols[ix.Col]
	// Point lookup: use equality selectivity (a histogram interval of
	// zero width would otherwise estimate zero rows).
	if r.lo != nil && r.hi != nil && r.lo.Key == r.hi.Key {
		return eqSelectivity(cs, float64(r.lo.Key))
	}
	sel := 1.0
	if r.hi != nil {
		sel = ltSelectivity(cs, float64(r.hi.Key), true)
	} else {
		sel = clampSel(1 - cs.NullFrac)
	}
	if r.lo != nil {
		sel -= ltSelectivity(cs, float64(r.lo.Key), false)
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
	case corr > 0 && r.lo != nil:
		before = ltSelectivity(cs, float64(r.lo.Key), false)
	case corr < 0 && r.hi != nil:
		before = 1 - cs.NullFrac - ltSelectivity(cs, float64(r.hi.Key), true)
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
	// Every bounded index also tells the sequential scan how far it reads
	// before its first match: it must pass the leading misses of each
	// range, so the largest. The sequential scan is still considered
	// first.
	var buf [4]Node
	indexScans := buf[:0]
	skip := joinSkip
	for _, ix := range rel.Table.Indexes {
		r := extractRange(rel.Idx, ix.Col, conjs)
		if !r.bounded() {
			continue
		}
		var residual []plan.Conjunct
		for i, c := range conjs {
			if !r.used[i] {
				residual = append(residual, c)
			}
		}
		sel := rangeSelectivity(rel, ix, r, pc.q)
		indexScans = append(indexScans, newIndexScan(rel, ix, r.lo, r.hi, sel, residual, pc, p))
		skip = math.Max(skip, leadingMisses(rel, ix, r))
	}
	ch := startChoice(rec, pc.frac)
	ch.consider(newSeqScan(rel, conjs, skip, pc, p))
	for _, n := range indexScans {
		ch.consider(n)
	}
	return ch.done(), nil
}
