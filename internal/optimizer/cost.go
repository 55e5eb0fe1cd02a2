package optimizer

import (
	"math"

	"dbvirt/internal/catalog"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// fallbackBytesPerValue sizes rows when no table statistics exist.
const fallbackBytesPerValue = 16

// rowBytesOf estimates the byte width of a node's rows for sort/hash
// memory planning.
type sized interface{ bytes() float64 }

func (c *common) bytes() float64 { return c.rowBytes }

// exprOps estimates the operator units (cpu_operator_cost multiples) of
// one expression. Unlike a flat node count it consults column statistics
// for LIKE predicates, whose true cost grows with the average string
// width — the effect that makes TPC-H Q13 CPU-bound.
func exprOps(e plan.Expr, q *plan.Query) float64 {
	switch x := e.(type) {
	case *plan.Like:
		width := 32.0 // default assumed string width
		if col, ok := x.E.(*plan.ColRef); ok && col.Rel >= 0 && col.Rel < len(q.Rels) {
			st := statsFor(q.Rels[col.Rel])
			if col.Col < len(st.Cols) && st.Cols[col.Col].AvgWidth > 0 {
				width = st.Cols[col.Col].AvgWidth
			}
		}
		return types.LikeCostOps(int(width))/plan.OpsPerOperator + exprOps(x.E, q)
	case *plan.Bin:
		return 1 + exprOps(x.L, q) + exprOps(x.R, q)
	case *plan.Not:
		return 1 + exprOps(x.E, q)
	case *plan.Neg:
		return 1 + exprOps(x.E, q)
	case *plan.Between:
		return 2 + exprOps(x.E, q) + exprOps(x.Lo, q) + exprOps(x.Hi, q)
	case *plan.In:
		n := float64(len(x.List)) + exprOps(x.E, q)
		for _, l := range x.List {
			n += exprOps(l, q)
		}
		return n
	case *plan.IsNull:
		return 1 + exprOps(x.E, q)
	default:
		return 0
	}
}

// mergeLayouts builds a join layout: left's layout plus right's shifted by
// left's width.
func mergeLayouts(left, right Node) plan.Layout {
	lay := plan.NewLayout()
	for rel, off := range left.Layout().Base {
		lay.Base[rel] = off
	}
	for rel, off := range right.Layout().Base {
		lay.Base[rel] = off + left.Width()
	}
	return lay
}

// pagesFetched estimates the page reads needed to fetch t tuples spread
// over a relation of n pages, given an effective cache of ecs pages. The
// expected number of distinct pages touched is n(1-(1-1/n)^t); when the
// relation does not fit in the cache, a fraction of repeat visits miss and
// must be re-read.
func pagesFetched(t, n float64, ecs int64) float64 {
	if t <= 0 || n <= 0 {
		return 0
	}
	if n == 1 {
		return 1
	}
	distinct := n * (1 - math.Pow(1-1/n, t))
	if distinct > t {
		distinct = t
	}
	if float64(ecs) >= n {
		return distinct
	}
	// Repeat visits: (t - distinct) of them; hit probability ecs/n.
	missFrac := 1 - float64(ecs)/n
	return distinct + (t-distinct)*missFrac
}

// seqMissFrac is the steady-state fraction of a sequential scan's pages
// that miss the cache. A relation that fits in the effective cache stays
// resident across the repeated executions of a design-time workload (a
// small residual accounts for churn); one that exceeds the cache — even
// slightly — suffers sequential flooding under clock/LRU replacement and
// misses on every page. This cache-awareness is what lets the what-if
// model see that Q13's hot orders relation costs almost no I/O while Q4's
// lineitem pays for every page, and why an extra memory share can flip a
// relation from fully-missing to fully-resident.
func seqMissFrac(pages float64, ecs int64) float64 {
	if ecs <= 0 || pages <= 0 || pages > float64(ecs) {
		return 1
	}
	return 0.1
}

// newSeqScan builds a sequential scan with pushed-down filters. skipFrac
// is the fraction of the scan spent before the first matching row: the
// scan's startup cost, which decides nothing unless a LIMIT stops it
// early.
func newSeqScan(rel *plan.Rel, filter []plan.Conjunct, skipFrac float64, pc *planCtx, p Params) *SeqScan {
	st := statsFor(rel)
	rows := float64(st.NumRows)
	sel := pc.conjSel(filter)
	pages := float64(st.NumPages)
	io := pages * seqMissFrac(pages, p.EffectiveCacheSizePages) * p.SeqPageCost
	cpu := rows*p.CPUTupleCost + rows*pc.predOps(filter)*p.CPUOperatorCost
	s := &SeqScan{Rel: rel, Filter: filter, skipFrac: skipFrac}
	s.rows = math.Max(rows*sel, 0)
	s.cost = Cost{Startup: skipFrac * (io + cpu), Total: io + cpu, CPU: cpu}
	s.layout = pc.relLayout(rel.Idx)
	s.width = len(rel.Table.Schema.Cols)
	s.rowBytes = rowBytesFromStats(st, s.width)
	return s
}

func rowBytesFromStats(st *catalog.TableStats, width int) float64 {
	if st.AvgTupleBytes > 0 {
		return st.AvgTupleBytes
	}
	return float64(width * fallbackBytesPerValue)
}

// correlationThreshold above which heap fetches of an index scan are
// treated as sequential.
const correlationThreshold = 0.8

// newIndexScan builds an index scan over the key range r with residual
// filters. rangeSel is the selectivity of the key range itself.
func newIndexScan(rel *plan.Rel, ix *catalog.Index, r keyRange, rangeSel float64, residual []plan.Conjunct, pc *planCtx, p Params) *IndexScan {
	st := statsFor(rel)
	rows := float64(st.NumRows)
	matched := rows * rangeSel

	var idxPages, height float64 = defaultPages, 2
	corr := 0.0
	if ix.Stats != nil {
		idxPages = float64(ix.Stats.NumPages)
		height = float64(ix.Stats.Height)
		corr = ix.Stats.Correlation
	}
	// Index traversal: descent (random) plus the fraction of leaf pages in
	// range (chained, so sequential beyond the first).
	descent := height * p.RandomPageCost
	leafPages := math.Max(idxPages-height, 1)
	leafIO := leafPages * rangeSel * p.SeqPageCost

	// Heap I/O: interpolate between perfectly correlated (sequential run)
	// and uncorrelated (random distinct pages) using corr², as PostgreSQL
	// does in cost_index.
	n := float64(st.NumPages)
	maxIO := pagesFetched(matched, n, p.EffectiveCacheSizePages) * p.RandomPageCost
	minIO := math.Ceil(rangeSel*n) * p.SeqPageCost
	c2 := corr * corr
	heapIO := maxIO + c2*(minIO-maxIO)
	if heapIO < 0 {
		heapIO = 0
	}

	cpu := matched*(p.CPUIndexTupleCost+p.CPUTupleCost) +
		matched*pc.predOps(residual)*p.CPUOperatorCost

	s := &IndexScan{
		Rel: rel, Index: ix, Filter: residual,
		Correlated: math.Abs(corr) >= correlationThreshold,
		keys:       r,
		ends:       [2]Bound{{Key: r.lo}, {Key: r.hi}},
		rangeSel:   rangeSel,
	}
	if r.hasLo {
		s.Lo = &s.ends[0]
	}
	if r.hasHi {
		s.Hi = &s.ends[1]
	}
	s.rows = math.Max(matched*pc.conjSel(residual), 0)
	s.cost = Cost{Startup: descent, Total: descent + leafIO + heapIO + cpu, CPU: cpu}
	s.layout = pc.relLayout(rel.Idx)
	s.width = len(rel.Table.Schema.Cols)
	s.rowBytes = rowBytesFromStats(st, s.width)
	return s
}

// newSubqueryScan wraps an optimized inner plan as a relation scan.
// innerEnum names the inner enumeration the plan's shape comes from (nil
// outside prepared queries).
func newSubqueryScan(rel *plan.Rel, inner *Plan, innerEnum Node, p Params) *SubqueryScan {
	var visible []int
	for i, oc := range inner.Query.Select {
		if !oc.Hidden {
			visible = append(visible, i)
		}
	}
	s := &SubqueryScan{Rel: rel, Input: inner.Root, Visible: visible, innerEnum: innerEnum}
	extra := inner.Root.Rows() * p.CPUTupleCost
	ic := inner.Root.Cost()
	s.rows = inner.Root.Rows()
	s.cost = Cost{Startup: ic.Startup, Total: ic.Total + extra, CPU: ic.CPU + extra}
	s.layout = plan.SingleRel(rel.Idx)
	s.width = len(visible)
	s.rowBytes = float64(len(visible) * fallbackBytesPerValue)
	return s
}

// newFilter wraps input with extra predicates.
func newFilter(input Node, conds []plan.Conjunct, pc *planCtx, p Params) *FilterNode {
	f := &FilterNode{Input: input, Conds: conds}
	f.rows = input.Rows() * pc.conjSel(conds)
	extra := input.Rows() * pc.predOps(conds) * p.CPUOperatorCost
	ic := input.Cost()
	f.cost = Cost{Startup: ic.Startup, Total: ic.Total + extra, CPU: ic.CPU + extra}
	f.layout = input.Layout()
	f.width = input.Width()
	f.rowBytes = nodeBytes(input)
	return f
}

func nodeBytes(n Node) float64 {
	if s, ok := n.(sized); ok && s.bytes() > 0 {
		return s.bytes()
	}
	return float64(n.Width() * fallbackBytesPerValue)
}

// joinRows computes the output cardinality of a join given both input
// cardinalities and the predicate selectivity; LEFT joins emit at least
// one row per outer row.
func joinRows(jt sql.JoinType, outerRows, innerRows, sel float64) float64 {
	rows := outerRows * innerRows * sel
	if jt == sql.LeftJoin && rows < outerRows {
		rows = outerRows
	}
	if rows < 0 {
		rows = 0
	}
	return rows
}

// newNLJoin builds a nested-loops join; the inner side is materialized in
// memory once and rescanned per outer row.
func newNLJoin(jt sql.JoinType, outer, inner Node, on []plan.Conjunct, rows float64, pc *planCtx, p Params) *NLJoin {
	j := &NLJoin{Type: jt, Outer: outer, Inner: inner, On: on}
	if rows < 0 {
		rows = joinRows(jt, outer.Rows(), inner.Rows(), pc.conjSel(on))
	}
	pairs := outer.Rows() * inner.Rows()
	ops := pc.predOps(on)
	if ops < 1 {
		ops = 1
	}
	cpu := inner.Rows()*p.CPUTupleCost + // materialization
		pairs*ops*p.CPUOperatorCost +
		rows*p.CPUTupleCost
	oc, ic := outer.Cost(), inner.Cost()
	j.rows = rows
	j.cost = Cost{
		Startup: oc.Startup + ic.Total,
		Total:   oc.Total + ic.Total + cpu,
		CPU:     oc.CPU + ic.CPU + cpu,
	}
	j.layout = pc.joinLayout(outer, inner)
	j.width = outer.Width() + inner.Width()
	j.rowBytes = nodeBytes(outer) + nodeBytes(inner)
	return j
}

// newHashJoin builds a hash join. Normally the hash table is built on the
// right (inner) side and probed from the left; with buildOuter=true the
// roles are reversed (PostgreSQL's Hash Right Join), which is profitable
// for LEFT joins whose outer side is much smaller.
func newHashJoin(jt sql.JoinType, left, right Node, leftKeys, rightKeys []plan.Expr, residual []plan.Conjunct, rows float64, buildOuter bool, pc *planCtx, p Params) *HashJoin {
	j := &HashJoin{
		Type: jt, Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual,
		BuildOuter: buildOuter,
	}
	buildSide, probeSide := right, left
	if buildOuter {
		buildSide, probeSide = left, right
	}
	buildRows := buildSide.Rows()
	probeRows := probeSide.Rows()
	buildBytes := buildRows * nodeBytes(buildSide) * 1.5 // hash table overhead
	batches := 1
	if buildBytes > float64(p.WorkMemBytes) {
		batches = int(math.Ceil(buildBytes / float64(p.WorkMemBytes)))
	}
	j.Batches = batches

	nk := float64(len(leftKeys))
	cpu := buildRows*(nk*p.CPUOperatorCost+p.CPUTupleCost) +
		probeRows*nk*p.CPUOperatorCost +
		rows*p.CPUTupleCost +
		rows*pc.predOps(residual)*p.CPUOperatorCost
	var spill float64
	if batches > 1 {
		spillBytes := buildBytes + probeRows*nodeBytes(probeSide)
		spill = 2 * spillBytes / storage.PageSize * p.SeqPageCost
	}
	bc, prc := buildSide.Cost(), probeSide.Cost()
	startup := bc.Total + buildRows*(nk*p.CPUOperatorCost+p.CPUTupleCost)
	j.rows = rows
	j.cost = Cost{
		Startup: startup + prc.Startup,
		Total:   bc.Total + prc.Total + cpu + spill,
		CPU:     bc.CPU + prc.CPU + cpu,
	}
	j.layout = pc.joinLayout(left, right)
	j.width = left.Width() + right.Width()
	j.rowBytes = nodeBytes(left) + nodeBytes(right)
	return j
}

// newIndexNLJoin builds an index nested-loops join: per outer row, probe
// the inner relation's index with a key from the outer row.
func newIndexNLJoin(jt sql.JoinType, outer Node, innerRel *plan.Rel, ix *catalog.Index, outerKey plan.Expr, innerFilter, residual []plan.Conjunct, rows float64, pc *planCtx, p Params) *IndexNLJoin {
	j := &IndexNLJoin{
		Type: jt, Outer: outer, InnerRel: innerRel, Index: ix,
		OuterKey: outerKey, InnerFilter: innerFilter, Residual: residual,
	}
	st := statsFor(innerRel)
	innerRows := float64(st.NumRows)
	cs := st.Cols[ix.Col]
	nd := cs.NDistinct
	if nd <= 0 {
		nd = innerRows * defaultEqSel
		if nd < 1 {
			nd = 1
		}
	}
	matchedPerProbe := innerRows / nd

	probes := outer.Rows()
	totalMatched := probes * matchedPerProbe

	var idxPages, height float64 = defaultPages, 2
	if ix.Stats != nil {
		idxPages = float64(ix.Stats.NumPages)
		height = float64(ix.Stats.Height)
	}
	// Index pages are hot after the first probes; heap pages follow the
	// cache-aware fetch model.
	idxIO := pagesFetched(probes*height, idxPages, p.EffectiveCacheSizePages) * p.RandomPageCost
	heapIO := pagesFetched(totalMatched, float64(st.NumPages), p.EffectiveCacheSizePages) * p.RandomPageCost

	cpu := totalMatched*(p.CPUIndexTupleCost+p.CPUTupleCost) +
		probes*p.CPUOperatorCost +
		totalMatched*pc.predOps(innerFilter)*p.CPUOperatorCost +
		rows*pc.predOps(residual)*p.CPUOperatorCost +
		rows*p.CPUTupleCost

	oc := outer.Cost()
	j.rows = rows
	j.cost = Cost{
		Startup: oc.Startup,
		Total:   oc.Total + idxIO + heapIO + cpu,
		CPU:     oc.CPU + cpu,
	}
	if lay, ok := pc.takeLayout(); ok {
		j.layout = lay
	} else {
		lay := plan.NewLayout()
		for rel, off := range outer.Layout().Base {
			lay.Base[rel] = off
		}
		lay.Base[innerRel.Idx] = outer.Width()
		j.layout = lay
	}
	j.width = outer.Width() + len(innerRel.Table.Schema.Cols)
	j.rowBytes = nodeBytes(outer) + rowBytesFromStats(st, len(innerRel.Table.Schema.Cols))
	return j
}

// newMergeJoin builds a merge join over inputs already sorted by their
// key columns.
func newMergeJoin(jt sql.JoinType, left, right Node, leftCols, rightCols []int, residual []plan.Conjunct, rows float64, pc *planCtx, p Params) *MergeJoin {
	j := &MergeJoin{
		Type: jt, Left: left, Right: right,
		LeftCols: leftCols, RightCols: rightCols, Residual: residual,
	}
	nk := float64(len(leftCols))
	cpu := (left.Rows()+right.Rows())*nk*p.CPUOperatorCost + // merge comparisons
		rows*p.CPUTupleCost +
		rows*pc.predOps(residual)*p.CPUOperatorCost
	lc, rc := left.Cost(), right.Cost()
	j.rows = rows
	j.cost = Cost{
		Startup: lc.Startup + rc.Startup,
		Total:   lc.Total + rc.Total + cpu,
		CPU:     lc.CPU + rc.CPU + cpu,
	}
	j.layout = pc.joinLayout(left, right)
	j.width = left.Width() + right.Width()
	j.rowBytes = nodeBytes(left) + nodeBytes(right)
	return j
}

// newSort builds a sort over the input's output columns.
func newSort(input Node, keys []SortKey, p Params) *Sort {
	s := &Sort{Input: input, Keys: keys}
	n := math.Max(input.Rows(), 1)
	comparisons := 2 * n * math.Log2(n+1) * p.CPUOperatorCost
	bytes := n * nodeBytes(input)
	var io float64
	if bytes > float64(p.WorkMemBytes) {
		s.SpillPages = bytes / storage.PageSize
		io = 2 * s.SpillPages * p.SeqPageCost
	}
	ic := input.Cost()
	emit := n * p.CPUOperatorCost
	startup := ic.Total + comparisons + io
	s.rows = input.Rows()
	s.cost = Cost{
		Startup: startup,
		Total:   startup + emit,
		CPU:     ic.CPU + comparisons + emit,
	}
	s.layout = input.Layout()
	s.width = input.Width()
	s.rowBytes = nodeBytes(input)
	return s
}

// newHashAgg builds a hash aggregation.
func newHashAgg(input Node, groupBy []plan.Expr, aggs []plan.AggSpec, pc *planCtx, p Params) *HashAgg {
	a := &HashAgg{Input: input, GroupBy: groupBy, Aggs: aggs}
	groups := groupCountEstimate(groupBy, input.Rows(), pc.q)
	transitions := input.Rows() * float64(len(groupBy)+len(aggs)) * p.CPUOperatorCost
	emit := groups * p.CPUTupleCost
	ic := input.Cost()
	startup := ic.Total + transitions
	a.rows = groups
	a.cost = Cost{
		Startup: startup,
		Total:   startup + emit,
		CPU:     ic.CPU + transitions + emit,
	}
	if lay, ok := pc.takeLayout(); ok {
		a.layout = lay
	} else {
		a.layout = plan.PostAgg(len(groupBy))
	}
	a.width = len(groupBy) + len(aggs)
	a.rowBytes = float64(a.width * fallbackBytesPerValue)
	return a
}

// newProject builds the output projection.
func newProject(input Node, cols []plan.OutputCol, pc *planCtx, p Params) *Project {
	pr := &Project{Input: input, Cols: cols}
	extra := input.Rows() * pc.outputOps(cols) * p.CPUOperatorCost
	ic := input.Cost()
	pr.rows = input.Rows()
	pr.cost = Cost{Startup: ic.Startup, Total: ic.Total + extra, CPU: ic.CPU + extra}
	if lay, ok := pc.takeLayout(); ok {
		pr.layout = lay // positional output; no relation layout
	} else {
		pr.layout = plan.NewLayout()
	}
	pr.width = len(cols)
	pr.rowBytes = float64(len(cols) * fallbackBytesPerValue)
	return pr
}

// newDistinct builds duplicate elimination over visible columns.
func newDistinct(input Node, visibleCols int, p Params) *Distinct {
	d := &Distinct{Input: input, VisibleCols: visibleCols}
	hashCost := input.Rows() * float64(visibleCols) * p.CPUOperatorCost
	ic := input.Cost()
	d.rows = input.Rows() // upper bound without duplicate statistics
	d.cost = Cost{Startup: ic.Startup, Total: ic.Total + hashCost, CPU: ic.CPU + hashCost}
	d.layout = input.Layout()
	d.width = input.Width()
	d.rowBytes = nodeBytes(input)
	return d
}

// newLimit truncates to n rows, discounting the input's run cost.
// fraction is the tuple fraction the input's paths were chosen under.
func newLimit(input Node, n int64, fraction float64, p Params) *Limit {
	l := &Limit{Input: input, N: n, fraction: fraction}
	inRows := input.Rows()
	outRows := float64(n)
	if outRows > inRows {
		outRows = inRows
	}
	frac := 1.0
	if inRows > 0 {
		frac = outRows / inRows
	}
	ic := input.Cost()
	total := ic.Startup + (ic.Total-ic.Startup)*frac
	cpu := ic.CPU
	if ic.Total > 0 {
		cpu = ic.CPU * total / ic.Total
	}
	l.rows = outRows
	l.cost = Cost{Startup: ic.Startup, Total: total, CPU: cpu}
	l.layout = input.Layout()
	l.width = input.Width()
	l.rowBytes = nodeBytes(input)
	return l
}
