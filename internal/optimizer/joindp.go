package optimizer

import (
	"fmt"
	"math"
	"sync"

	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
)

// dpRelLimit is the largest relation count optimized by exhaustive
// dynamic programming; larger queries fall back to a greedy heuristic.
const dpRelLimit = 13

// joinOptimizer carries state for one enumeration.
type joinOptimizer struct {
	q   *plan.Query
	p   Params
	pc  *planCtx
	rec *recorder

	conjClasses
	singleSel []float64 // per relation: product selectivity of its conjuncts

	// Cardinality memo. When the plan context carries a shareable memo the
	// shared one is used; otherwise a call-local dense slice (within
	// dpRelLimit) or map serves, backed by pooled scratch.
	sharedRows bool
	rowsDense  []float64 // indexed by RelSet mask; NaN = unset
	rowsMap    map[plan.RelSet]float64

	leaves []cell // best access paths per relation, shared by dp and greedy

	// Pooled scratch buffers, reused across enumerations.
	rowsBuf []float64
	bestBuf []cell
	selBuf  []float64
}

// conjClasses splits a query's WHERE conjuncts by how many relations they
// reference. Plan nodes and prepared records share the lists read-only.
type conjClasses struct {
	singleConjs [][]plan.Conjunct // per relation
	multiConjs  []plan.Conjunct   // spanning >= 2 relations
	zeroConjs   []plan.Conjunct   // constant predicates, applied at the top
}

// joPool recycles joinOptimizer values so repeated enumeration — the inner
// loop of grid calibration and design search — does not reallocate its
// dense DP and cardinality tables every call. Only the scratch buffers
// survive between uses; everything plan-visible is freshly allocated.
var joPool = sync.Pool{New: func() any { return new(joinOptimizer) }}

func getJoinOptimizer(pc *planCtx, p Params, rec *recorder) *joinOptimizer {
	jo := joPool.Get().(*joinOptimizer)
	rowsBuf, bestBuf, selBuf := jo.rowsBuf, jo.bestBuf, jo.selBuf
	*jo = joinOptimizer{q: pc.q, p: p, pc: pc, rec: rec, rowsBuf: rowsBuf, bestBuf: bestBuf, selBuf: selBuf}
	return jo
}

func (jo *joinOptimizer) release() {
	// Drop references to plan nodes held in the pooled DP table so the
	// pool does not pin whole plan trees between enumerations.
	for i := range jo.bestBuf {
		jo.bestBuf[i] = cell{}
	}
	joPool.Put(jo)
}

// optimizeJoins produces the cheapest join tree for an inner-join query.
func optimizeJoins(pc *planCtx, p Params, rec *recorder) (Node, error) {
	q := pc.q
	jo := getJoinOptimizer(pc, p, rec)
	defer jo.release()
	jo.singleConjs = make([][]plan.Conjunct, len(q.Rels))
	for _, c := range q.Where {
		switch c.Rels.Count() {
		case 0:
			jo.zeroConjs = append(jo.zeroConjs, c)
		case 1:
			for i := range q.Rels {
				if c.Rels.Has(i) {
					jo.singleConjs[i] = append(jo.singleConjs[i], c)
				}
			}
		default:
			jo.multiConjs = append(jo.multiConjs, c)
		}
	}
	if rec != nil {
		rec.classes = jo.conjClasses
	}
	jo.estimate()

	jo.leaves = make([]cell, len(q.Rels))
	for i, rel := range q.Rels {
		leaf, err := bestAccessPath(rel, jo.singleConjs[i], jo.impliedSkip(rel), pc, p, rec)
		if err != nil {
			return nil, err
		}
		jo.leaves[i] = leaf
	}

	var top cell
	var err error
	if len(q.Rels) <= dpRelLimit {
		top, err = jo.dp()
	} else {
		top, err = jo.greedy()
	}
	if err != nil {
		return nil, err
	}
	// What sits above consumes pc.frac of the join result, so the tree
	// that is cheapest under it is the plan.
	root := top.frac
	if pc.frac < 1 {
		mFractionPlans.Inc()
		if top.frac != top.total {
			mFractionFlips.Inc()
		}
	}
	if len(jo.zeroConjs) > 0 {
		root = newFilter(root, jo.zeroConjs, pc, p)
	}
	return root, nil
}

// estimate derives what enumeration reads before it builds any node: the
// single-relation selectivities, the cardinality memo and pc.frac.
func (jo *joinOptimizer) estimate() {
	n := len(jo.q.Rels)
	if cap(jo.selBuf) < n {
		jo.selBuf = make([]float64, n)
	}
	jo.singleSel = jo.selBuf[:n]
	for i := range jo.singleSel {
		jo.singleSel[i] = jo.pc.conjSel(jo.singleConjs[i])
	}
	jo.initRowsMemo(n)
	jo.pc.frac = jo.tupleFraction()
}

// initRowsMemo selects the cardinality memo for this enumeration: the
// shared cross-call memo when available, else pooled dense scratch within
// the DP limit, else a map.
func (jo *joinOptimizer) initRowsMemo(n int) {
	if jo.pc.ps != nil && jo.pc.ps.shareRows {
		jo.sharedRows = true
		return
	}
	if n <= dpRelLimit {
		size := 1 << uint(n)
		if cap(jo.rowsBuf) < size {
			jo.rowsBuf = make([]float64, size)
		}
		jo.rowsDense = jo.rowsBuf[:size]
		for i := range jo.rowsDense {
			jo.rowsDense[i] = math.NaN()
		}
		return
	}
	jo.rowsMap = make(map[plan.RelSet]float64)
}

// tupleFraction is the share of the join result the query consumes:
// LIMIT over the estimated result rows when every operator between the
// joins and the Limit streams, 1 when a Sort or aggregate drains its
// input first. It depends on the query, its constants and the
// statistics, never on P. Derived tables keep 1: their row estimates
// come from inner plans whose shape moves with the parameters.
func (jo *joinOptimizer) tupleFraction() float64 {
	q := jo.q
	if q.Limit == nil || q.Grouped || len(q.OrderBy) > 0 {
		return 1
	}
	for _, rel := range q.Rels {
		if rel.Sub != nil {
			return 1
		}
	}
	full := plan.RelSet(1)<<uint(len(q.Rels)) - 1
	rows := jo.rows(full) * jo.pc.conjSel(jo.zeroConjs)
	if n := float64(*q.Limit); n < rows {
		return n / rows
	}
	return 1
}

// impliedSkip is the fraction of rel's heap a sequential scan reads
// before the first row that can survive the joins: an equi-join carries
// a key range on the partner's column over to rel's, and every complete
// plan discards the rows outside it. Only a truncated pipeline reads
// startup costs, so it is derived only under a tuple fraction below 1.
func (jo *joinOptimizer) impliedSkip(rel *plan.Rel) float64 {
	if jo.pc.frac >= 1 {
		return 0
	}
	var skip float64
	for _, c := range jo.multiConjs {
		bin, ok := c.E.(*plan.Bin)
		if !ok || bin.Op != sql.OpEq {
			continue
		}
		mine, isCol := bin.L.(*plan.ColRef)
		theirs, isCol2 := bin.R.(*plan.ColRef)
		if !isCol || !isCol2 {
			continue
		}
		if theirs.Rel == rel.Idx {
			mine, theirs = theirs, mine
		}
		if mine.Rel != rel.Idx || theirs.Rel == rel.Idx {
			continue
		}
		ix := rel.Table.IndexOn(mine.Col)
		if ix == nil {
			continue
		}
		if r := extractRange(theirs.Rel, theirs.Col, jo.singleConjs[theirs.Rel]); r.bounded() {
			skip = math.Max(skip, leadingMisses(rel, ix, r))
		}
	}
	return skip
}

// rows returns the plan-independent cardinality estimate for a subset.
func (jo *joinOptimizer) rows(s plan.RelSet) float64 {
	if jo.sharedRows {
		if v, ok := jo.pc.ps.rowsGet(s); ok {
			return v
		}
		v := jo.computeRows(s)
		jo.pc.ps.rowsPut(s, v)
		return v
	}
	if jo.rowsDense != nil {
		if v := jo.rowsDense[s]; !math.IsNaN(v) {
			return v
		}
		v := jo.computeRows(s)
		jo.rowsDense[s] = v
		return v
	}
	if v, ok := jo.rowsMap[s]; ok {
		return v
	}
	v := jo.computeRows(s)
	jo.rowsMap[s] = v
	return v
}

func (jo *joinOptimizer) computeRows(s plan.RelSet) float64 {
	rows := 1.0
	for i := range jo.q.Rels {
		if !s.Has(i) {
			continue
		}
		if jo.q.Rels[i].Sub != nil && jo.leaves != nil {
			// Derived tables: the leaf node's estimate already includes
			// pushed-down filters.
			rows *= jo.leaves[i].total.Rows()
			continue
		}
		base := float64(statsFor(jo.q.Rels[i]).NumRows)
		rows *= base * jo.singleSel[i]
	}
	for _, c := range jo.multiConjs {
		if c.Rels.SubsetOf(s) {
			rows *= jo.pc.selectivity(c.E)
		}
	}
	if rows < 0 {
		rows = 0
	}
	return rows
}

// newConjuncts returns the multi-relation conjuncts first applicable when
// joining a and b (subset of a∪b but of neither side alone).
func (jo *joinOptimizer) newConjuncts(a, b plan.RelSet) []plan.Conjunct {
	var out []plan.Conjunct
	s := a | b
	for _, c := range jo.multiConjs {
		if c.Rels.SubsetOf(s) && !c.Rels.SubsetOf(a) && !c.Rels.SubsetOf(b) {
			out = append(out, c)
		}
	}
	return out
}

// equiKey describes one hash-joinable equality conjunct between the two
// sides.
type equiKey struct {
	leftE, rightE plan.Expr
	conjIdx       int
	rightCol      *plan.ColRef // set when the right side is a bare column
}

// splitEquiKeys partitions conjuncts into hash keys (left side over a,
// right side over b) and residual predicates.
func splitEquiKeys(conjs []plan.Conjunct, a, b plan.RelSet) (keys []equiKey, residual []plan.Conjunct) {
	for i, c := range conjs {
		bin, ok := c.E.(*plan.Bin)
		if !ok || bin.Op != sql.OpEq {
			residual = append(residual, c)
			continue
		}
		lRels, rRels := plan.RelsOf(bin.L), plan.RelsOf(bin.R)
		switch {
		case lRels != 0 && rRels != 0 && lRels.SubsetOf(a) && rRels.SubsetOf(b):
			k := equiKey{leftE: bin.L, rightE: bin.R, conjIdx: i}
			if col, isCol := bin.R.(*plan.ColRef); isCol {
				k.rightCol = col
			}
			keys = append(keys, k)
		case lRels != 0 && rRels != 0 && rRels.SubsetOf(a) && lRels.SubsetOf(b):
			k := equiKey{leftE: bin.R, rightE: bin.L, conjIdx: i}
			if col, isCol := bin.L.(*plan.ColRef); isCol {
				k.rightCol = col
			}
			keys = append(keys, k)
		default:
			residual = append(residual, c)
		}
	}
	return keys, residual
}

// bestJoin builds every physical join of outer (over set a) with inner
// (over set b), from each distinct tree the two cells hold, and returns
// the cheapest on Total and under the tuple fraction.
func (jo *joinOptimizer) bestJoin(outer cell, a plan.RelSet, inner cell, b plan.RelSet) cell {
	conjs := jo.newConjuncts(a, b)
	rows := jo.rows(a | b)
	keys, residual := splitEquiKeys(conjs, a, b)
	var lks, rks []plan.Expr
	for _, k := range keys {
		lks = append(lks, k.leftE)
		rks = append(rks, k.rightE)
	}

	ch := startChoice(jo.rec, jo.pc.frac)
	for _, o := range outer.alts() {
		for _, in := range inner.alts() {
			ch.consider(newNLJoin(sql.InnerJoin, o, in, conjs, rows, jo.pc, jo.p))
			if len(keys) == 0 {
				continue
			}
			ch.consider(newHashJoin(sql.InnerJoin, o, in, lks, rks, residual, rows, false, jo.pc, jo.p))

			// Merge join: all keys must be bare columns. Children that are
			// index scans over a single join-key column already stream in
			// key order; anything else gets an explicit sort.
			if mj := jo.tryMergeJoin(o, in, keys, residual, rows); mj != nil {
				ch.consider(mj)
			}
		}
		jo.considerIndexNLJoins(&ch, o, b, conjs, keys, residual, rows)
	}
	return ch.done()
}

// considerIndexNLJoins offers index nested loops: the inner side must be
// a single base relation with an index on one equi-key column. The join
// probes the relation itself, so it is built once per outer tree.
func (jo *joinOptimizer) considerIndexNLJoins(ch *chooser, outer Node, b plan.RelSet, conjs []plan.Conjunct, keys []equiKey, residual []plan.Conjunct, rows float64) {
	if b.Count() != 1 {
		return
	}
	var innerRel *plan.Rel
	for i := range jo.q.Rels {
		if b.Has(i) {
			innerRel = jo.q.Rels[i]
		}
	}
	for ki, k := range keys {
		if k.rightCol == nil || k.rightCol.Rel != innerRel.Idx {
			continue
		}
		ix := innerRel.Table.IndexOn(k.rightCol.Col)
		if ix == nil {
			continue
		}
		// Residual: everything except this key.
		var resid []plan.Conjunct
		resid = append(resid, residual...)
		for kj, other := range keys {
			if kj != ki {
				resid = append(resid, conjs[other.conjIdx])
			}
		}
		ch.consider(newIndexNLJoin(sql.InnerJoin, outer, innerRel, ix, k.leftE,
			jo.singleConjs[innerRel.Idx], resid, rows, jo.pc, jo.p))
	}
}

// tryMergeJoin builds a merge-join candidate if every equi key is a bare
// column reference, or nil otherwise.
func (jo *joinOptimizer) tryMergeJoin(outer, inner Node, keys []equiKey, residual []plan.Conjunct, rows float64) Node {
	leftCols := make([]int, 0, len(keys))
	rightCols := make([]int, 0, len(keys))
	for _, k := range keys {
		lc, lok := k.leftE.(*plan.ColRef)
		rc, rok := k.rightE.(*plan.ColRef)
		if !lok || !rok {
			return nil
		}
		lo, err := outer.Layout().Offset(lc)
		if err != nil {
			return nil
		}
		ro, err := inner.Layout().Offset(rc)
		if err != nil {
			return nil
		}
		leftCols = append(leftCols, lo)
		rightCols = append(rightCols, ro)
	}
	left := ensureSorted(outer, leftCols, jo.p)
	right := ensureSorted(inner, rightCols, jo.p)
	return newMergeJoin(sql.InnerJoin, left, right, leftCols, rightCols, residual, rows, jo.pc, jo.p)
}

// ensureSorted returns the node unchanged when it already streams in the
// required key order (an index scan over the single key column), and
// wraps it in a Sort otherwise.
func ensureSorted(n Node, cols []int, p Params) Node {
	if len(cols) == 1 {
		if is, ok := n.(*IndexScan); ok && is.Index.Col == cols[0] {
			return n // B+-tree range scans deliver ascending key order
		}
	}
	keys := make([]SortKey, len(cols))
	for i, c := range cols {
		keys[i] = SortKey{Col: c}
	}
	return newSort(n, keys, p)
}

// dp runs System-R style dynamic programming over relation subsets. The
// table is a dense slice indexed by the subset mask (n <= dpRelLimit by
// construction), drawn from the pooled scratch buffer.
func (jo *joinOptimizer) dp() (cell, error) {
	n := len(jo.q.Rels)
	full := plan.RelSet(1)<<uint(n) - 1
	tableSize := 1 << uint(n)
	if cap(jo.bestBuf) < tableSize {
		jo.bestBuf = make([]cell, tableSize)
	}
	best := jo.bestBuf[:tableSize]
	for i := range best {
		best[i] = cell{}
	}

	for i := 0; i < n; i++ {
		best[plan.NewRelSet(i)] = jo.leaves[i]
	}

	for size := 2; size <= n; size++ {
		for s := plan.RelSet(1); s <= full; s++ {
			if s.Count() != size {
				continue
			}
			ch := startChoice(jo.rec, jo.pc.frac)
			connected := false
			// First pass: connected splits only.
			for _, crossOK := range []bool{false, true} {
				if crossOK && connected {
					break
				}
				for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
					rest := s &^ sub
					lp, rp := best[sub], best[rest]
					if lp.total == nil || rp.total == nil {
						continue
					}
					if !crossOK && len(jo.newConjuncts(sub, rest)) == 0 {
						continue
					}
					connected = connected || !crossOK
					ch.considerCell(jo.bestJoin(lp, sub, rp, rest))
				}
			}
			best[s] = ch.done()
		}
	}
	root := best[full]
	if root.total == nil {
		return cell{}, fmt.Errorf("optimizer: no plan found for %d relations", n)
	}
	return root, nil
}

// greedy joins the pair with the smallest estimated result until one tree
// remains; used beyond the DP relation limit.
func (jo *joinOptimizer) greedy() (cell, error) {
	type entry struct {
		cell cell
		set  plan.RelSet
	}
	var items []entry
	for i := range jo.q.Rels {
		items = append(items, entry{
			cell: jo.leaves[i],
			set:  plan.NewRelSet(i),
		})
	}
	for len(items) > 1 {
		ch := startChoice(jo.rec, jo.pc.frac)
		// candidate index -> the joined pair (i, j) and its cell
		type joined struct {
			i, j int
			cell cell
		}
		var pairs []joined
		for _, connectedOnly := range []bool{true, false} {
			for i := 0; i < len(items); i++ {
				for j := 0; j < len(items); j++ {
					if i == j {
						continue
					}
					if connectedOnly && len(jo.newConjuncts(items[i].set, items[j].set)) == 0 {
						continue
					}
					c := jo.bestJoin(items[i].cell, items[i].set, items[j].cell, items[j].set)
					ch.considerCell(c)
					for range c.alts() { // one entry per candidate offered
						pairs = append(pairs, joined{i, j, c})
					}
				}
			}
			if ch.n > 0 {
				break
			}
		}
		if ch.done().total == nil {
			return cell{}, fmt.Errorf("optimizer: greedy join failed")
		}
		// The pair whose join is cheapest under the tuple fraction is
		// merged, and keeps both of its trees.
		win := pairs[ch.fbestIdx]
		merged := entry{cell: win.cell, set: items[win.i].set | items[win.j].set}
		var next []entry
		for k, it := range items {
			if k != win.i && k != win.j {
				next = append(next, it)
			}
		}
		items = append(next, merged)
	}
	return items[0].cell, nil
}

// --- fixed join trees (outer joins) ---

// buildFixedTree builds the physical plan for a query whose join shape is
// fixed by outer joins. pushed carries predicates from above that may be
// pushed toward the leaves when semantics allow.
func (jo *joinOptimizer) buildFixedTree(t *plan.JoinTree, pushed []plan.Conjunct) (Node, error) {
	if t.Rel != nil {
		var mine, above []plan.Conjunct
		leafSet := plan.NewRelSet(t.Rel.Idx)
		for _, c := range pushed {
			if c.Rels.SubsetOf(leafSet) {
				mine = append(mine, c)
			} else {
				above = append(above, c)
			}
		}
		leaf, err := bestAccessPath(t.Rel, mine, 0, jo.pc, jo.p, jo.rec)
		if err != nil {
			return nil, err
		}
		if len(above) > 0 {
			return nil, fmt.Errorf("optimizer: internal error: unpushable conjunct at leaf")
		}
		return leaf.total, nil
	}

	leftSet, rightSet := t.Left.Rels(), t.Right.Rels()
	var pushLeft, pushRight, stay []plan.Conjunct

	// ON conjuncts: for INNER joins single-side conjuncts may be pushed;
	// for LEFT joins only right-side (nullable-side) ON conjuncts may be
	// pushed — left-only ON conjuncts decide matching, not filtering.
	for _, c := range t.On {
		switch {
		case c.Rels.SubsetOf(rightSet):
			pushRight = append(pushRight, c)
		case t.Type == sql.InnerJoin && c.Rels.SubsetOf(leftSet):
			pushLeft = append(pushLeft, c)
		default:
			stay = append(stay, c)
		}
	}
	// Pushed predicates from above (WHERE): pushing into the left side is
	// always safe; pushing into the nullable right side of a LEFT join is
	// not.
	var applyHere []plan.Conjunct
	for _, c := range pushed {
		switch {
		case c.Rels.SubsetOf(leftSet):
			pushLeft = append(pushLeft, c)
		case t.Type == sql.InnerJoin && c.Rels.SubsetOf(rightSet):
			pushRight = append(pushRight, c)
		default:
			applyHere = append(applyHere, c)
		}
	}

	left, err := jo.buildFixedTree(t.Left, pushLeft)
	if err != nil {
		return nil, err
	}
	right, err := jo.buildFixedTree(t.Right, pushRight)
	if err != nil {
		return nil, err
	}

	keys, residual := splitEquiKeys(stay, leftSet, rightSet)
	sel := jo.pc.conjSel(stay)
	rows := joinRows(t.Type, left.Rows(), right.Rows(), sel)

	var node Node
	if len(keys) > 0 {
		var lks, rks []plan.Expr
		for _, k := range keys {
			lks = append(lks, k.leftE)
			rks = append(rks, k.rightE)
		}
		// Try both build sides and keep the cheaper (for LEFT joins the
		// reversed build is PostgreSQL's Hash Right Join).
		ch := startChoice(jo.rec, jo.pc.frac)
		ch.consider(newHashJoin(t.Type, left, right, lks, rks, residual, rows, false, jo.pc, jo.p))
		ch.consider(newHashJoin(t.Type, left, right, lks, rks, residual, rows, true, jo.pc, jo.p))
		node = ch.done().total
	} else {
		node = newNLJoin(t.Type, left, right, stay, rows, jo.pc, jo.p)
	}
	if len(applyHere) > 0 {
		node = newFilter(node, applyHere, jo.pc, jo.p)
	}
	return node, nil
}

// optimizeFixed plans a query with outer joins: the tree shape is kept,
// WHERE predicates are pushed as deep as semantics allow. Row estimates
// here follow the chosen leaves, so no parameter-independent tuple
// fraction exists and every choice is made on Total.
func optimizeFixed(pc *planCtx, p Params, rec *recorder) (Node, error) {
	jo := getJoinOptimizer(pc, p, rec)
	defer jo.release()
	root, err := jo.buildFixedTree(pc.q.OuterTree, pc.q.Where)
	if err != nil {
		return nil, err
	}
	return root, nil
}
