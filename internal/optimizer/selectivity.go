package optimizer

import (
	"math"

	"dbvirt/internal/catalog"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// Default selectivities when statistics cannot decide, following
// PostgreSQL's conventions.
const (
	defaultEqSel    = 0.005
	defaultRangeSel = 1.0 / 3.0
	defaultLikeSel  = 0.005
	defaultBoolSel  = 0.5
	// defaultRows is assumed for tables that were never analyzed.
	defaultRows  = 1000
	defaultPages = 10
)

// statsFor returns table statistics, synthesizing defaults for unanalyzed
// tables.
func statsFor(rel *plan.Rel) *catalog.TableStats {
	if rel.Table.Stats != nil {
		return rel.Table.Stats
	}
	return &catalog.TableStats{
		NumRows:  defaultRows,
		NumPages: defaultPages,
		Cols:     make([]catalog.ColumnStats, len(rel.Table.Schema.Cols)),
	}
}

// clampSel keeps a selectivity in [0, 1].
func clampSel(s float64) float64 {
	switch {
	case s < 0:
		return 0
	case s > 1:
		return 1
	case math.IsNaN(s):
		return defaultBoolSel
	default:
		return s
	}
}

// selectivity estimates the fraction of input rows satisfying e. rels maps
// a relation index to its statistics (so join-level estimation can reach
// all inputs).
func selectivity(e plan.Expr, q *plan.Query) float64 {
	switch x := e.(type) {
	case *plan.Const:
		if x.Val.Kind == types.KindBool {
			if x.Val.Bool() {
				return 1
			}
			return 0
		}
		return defaultBoolSel

	case *plan.Bin:
		switch x.Op {
		case sql.OpAnd:
			return clampSel(selectivity(x.L, q) * selectivity(x.R, q))
		case sql.OpOr:
			l, r := selectivity(x.L, q), selectivity(x.R, q)
			return clampSel(l + r - l*r)
		}
		if !x.Op.Comparison() {
			return defaultBoolSel
		}
		// col op col (different relations) => join selectivity.
		lc, lIsCol := x.L.(*plan.ColRef)
		rc, rIsCol := x.R.(*plan.ColRef)
		if lIsCol && rIsCol && lc.Rel >= 0 && rc.Rel >= 0 && lc.Rel != rc.Rel {
			return joinSelectivity(x.Op, lc, rc, q)
		}
		// col op const (either side).
		if lIsCol && lc.Rel >= 0 {
			if v, ok := constValue(x.R); ok {
				return scalarSelectivity(x.Op, lc, v, q)
			}
		}
		if rIsCol && rc.Rel >= 0 {
			if v, ok := constValue(x.L); ok {
				return scalarSelectivity(x.Op.Flip(), rc, v, q)
			}
		}
		// col op col same relation (e.g. l_commitdate < l_receiptdate).
		if lIsCol && rIsCol {
			if x.Op == sql.OpEq {
				return defaultEqSel
			}
			return defaultRangeSel
		}
		if x.Op == sql.OpEq {
			return defaultEqSel
		}
		return defaultRangeSel

	case *plan.Not:
		return clampSel(1 - selectivity(x.E, q))

	case *plan.Between:
		s := rangeBetween(x, q)
		if x.NotB {
			return clampSel(1 - s)
		}
		return s

	case *plan.In:
		col, isCol := x.E.(*plan.ColRef)
		var s float64
		if isCol && col.Rel >= 0 {
			for _, item := range x.List {
				if v, ok := constValue(item); ok {
					s += scalarSelectivity(sql.OpEq, col, v, q)
				} else {
					s += defaultEqSel
				}
			}
		} else {
			s = defaultEqSel * float64(len(x.List))
		}
		s = clampSel(s)
		if x.NotI {
			return clampSel(1 - s)
		}
		return s

	case *plan.Like:
		s := likeSelectivity(x.Pattern)
		if x.NotL {
			return clampSel(1 - s)
		}
		return s

	case *plan.IsNull:
		col, isCol := x.E.(*plan.ColRef)
		s := defaultEqSel
		if isCol && col.Rel >= 0 {
			s = statsFor(q.Rels[col.Rel]).Cols[col.Col].NullFrac
		}
		if x.NotN {
			return clampSel(1 - s)
		}
		return clampSel(s)

	case *plan.ColRef:
		if x.Kind == types.KindBool {
			return defaultBoolSel
		}
		return defaultBoolSel

	default:
		return defaultBoolSel
	}
}

// constValue extracts a constant's sort key if e is a literal.
func constValue(e plan.Expr) (float64, bool) {
	c, ok := e.(*plan.Const)
	if !ok || c.Val.IsNull() {
		return 0, false
	}
	return c.Val.ToSortKey()
}

// scalarSelectivity estimates col op const using the column's statistics.
func scalarSelectivity(op sql.BinaryOp, col *plan.ColRef, v float64, q *plan.Query) float64 {
	cs := statsFor(q.Rels[col.Rel]).Cols[col.Col]
	switch op {
	case sql.OpEq:
		return eqSelectivity(cs, v)
	case sql.OpNe:
		return clampSel(1 - eqSelectivity(cs, v) - cs.NullFrac)
	case sql.OpLt, sql.OpLe:
		return clampSel(ltSelectivity(cs, v, op == sql.OpLe))
	case sql.OpGt, sql.OpGe:
		lt := ltSelectivity(cs, v, op == sql.OpGt) // complement of <= for >, of < for >=
		return clampSel(1 - lt - cs.NullFrac)
	default:
		return defaultBoolSel
	}
}

// eqSelectivity is the PostgreSQL eqsel logic: exact MCV match if present,
// otherwise spread the non-MCV mass over the remaining distinct values.
func eqSelectivity(cs catalog.ColumnStats, v float64) float64 {
	for _, m := range cs.MCVs {
		if m.Key == v {
			return clampSel(m.Freq)
		}
	}
	if cs.NDistinct <= 0 {
		return defaultEqSel
	}
	remaining := cs.NDistinct - float64(len(cs.MCVs))
	if remaining < 1 {
		remaining = 1
	}
	otherMass := 1 - cs.MCVFreqTotal() - cs.NullFrac
	if otherMass < 0 {
		otherMass = 0
	}
	return clampSel(otherMass / remaining)
}

// ltSelectivity estimates Pr[col < v] (or <= v) from the histogram and
// MCVs, excluding NULLs.
func ltSelectivity(cs catalog.ColumnStats, v float64, orEqual bool) float64 {
	if !cs.HasRange {
		return defaultRangeSel
	}
	if v < cs.Min {
		return 0
	}
	if v > cs.Max {
		return clampSel(1 - cs.NullFrac)
	}
	// Mass from MCVs below v.
	var mcvBelow float64
	for _, m := range cs.MCVs {
		if m.Key < v || (orEqual && m.Key == v) {
			mcvBelow += m.Freq
		}
	}
	// Mass from histogram (covers the non-MCV, non-NULL fraction).
	histMass := 1 - cs.MCVFreqTotal() - cs.NullFrac
	if histMass < 0 {
		histMass = 0
	}
	frac := histFraction(cs.Histogram, v)
	return clampSel(mcvBelow + histMass*frac)
}

// histFraction returns the fraction of histogram mass strictly below v,
// with linear interpolation within a bucket.
func histFraction(hist []float64, v float64) float64 {
	if len(hist) < 2 {
		return defaultRangeSel
	}
	if v <= hist[0] {
		return 0
	}
	n := len(hist) - 1 // buckets
	if v >= hist[n] {
		return 1
	}
	for i := 0; i < n; i++ {
		lo, hi := hist[i], hist[i+1]
		if v < hi || (v == hi && i == n-1) {
			within := 0.5
			if hi > lo {
				within = (v - lo) / (hi - lo)
			}
			return (float64(i) + within) / float64(n)
		}
	}
	return 1
}

// rangeBetween estimates a BETWEEN as the difference of two boundary
// selectivities.
func rangeBetween(x *plan.Between, q *plan.Query) float64 {
	col, isCol := x.E.(*plan.ColRef)
	lo, okLo := constValue(x.Lo)
	hi, okHi := constValue(x.Hi)
	if !isCol || col.Rel < 0 || !okLo || !okHi {
		return defaultRangeSel * defaultRangeSel
	}
	cs := statsFor(q.Rels[col.Rel]).Cols[col.Col]
	below := ltSelectivity(cs, lo, false)
	upTo := ltSelectivity(cs, hi, true)
	return clampSel(upTo - below)
}

// likeSelectivity mirrors PostgreSQL's pattern heuristics: a leading
// wildcard gives the default match selectivity; an anchored prefix is more
// selective per fixed character.
func likeSelectivity(pattern string) float64 {
	if pattern == "" {
		return defaultEqSel
	}
	if pattern[0] == '%' || pattern[0] == '_' {
		return defaultLikeSel
	}
	// Anchored: each fixed leading character divides by alphabet-ish factor.
	sel := 1.0
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		if c == '%' || c == '_' {
			break
		}
		sel *= 0.2
		if sel < defaultLikeSel {
			return defaultLikeSel
		}
	}
	return clampSel(sel)
}

// joinSelectivity estimates col1 op col2 across relations; for equality it
// is 1/max(nd1, nd2) discounted by null fractions (PostgreSQL's eqjoinsel).
func joinSelectivity(op sql.BinaryOp, a, b *plan.ColRef, q *plan.Query) float64 {
	if op != sql.OpEq {
		return defaultRangeSel
	}
	ca := statsFor(q.Rels[a.Rel]).Cols[a.Col]
	cb := statsFor(q.Rels[b.Rel]).Cols[b.Col]
	nda, ndb := ca.NDistinct, cb.NDistinct
	if nda <= 0 {
		nda = defaultRows * defaultEqSel
	}
	if ndb <= 0 {
		ndb = defaultRows * defaultEqSel
	}
	sel := 1 / math.Max(nda, ndb)
	sel *= (1 - ca.NullFrac) * (1 - cb.NullFrac)
	return clampSel(sel)
}

// groupCountEstimate estimates the number of distinct groups produced by
// grouping inputRows rows on the given keys.
func groupCountEstimate(groupBy []plan.Expr, inputRows float64, q *plan.Query) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	groups := 1.0
	for _, g := range groupBy {
		nd := defaultRows * defaultEqSel
		if col, ok := g.(*plan.ColRef); ok && col.Rel >= 0 {
			if d := statsFor(q.Rels[col.Rel]).Cols[col.Col].NDistinct; d > 0 {
				nd = d
			}
		}
		groups *= nd
	}
	if groups > inputRows {
		groups = inputRows
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}
