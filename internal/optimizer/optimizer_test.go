package optimizer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dbvirt/internal/catalog"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// fixture builds and analyzes a small customer/orders/lineitem database.
func fixture(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	d := storage.NewDiskManager()
	pg := storage.NewDirectPager(d)
	rng := rand.New(rand.NewSource(11))

	cust, err := cat.CreateTable(d, "customer", catalog.Schema{Cols: []catalog.Column{
		{Name: "c_custkey", Kind: types.KindInt},
		{Name: "c_name", Kind: types.KindString},
		{Name: "c_mktsegment", Kind: types.KindString},
	}})
	if err != nil {
		t.Fatal(err)
	}
	segments := []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"}
	const nCust = 500
	for i := 0; i < nCust; i++ {
		cust.Heap.Insert(pg, storage.Tuple{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Customer#%06d", i)),
			types.NewString(segments[rng.Intn(len(segments))]),
		})
	}

	orders, err := cat.CreateTable(d, "orders", catalog.Schema{Cols: []catalog.Column{
		{Name: "o_orderkey", Kind: types.KindInt},
		{Name: "o_custkey", Kind: types.KindInt},
		{Name: "o_orderdate", Kind: types.KindDate},
		{Name: "o_total", Kind: types.KindFloat},
		{Name: "o_comment", Kind: types.KindString},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const nOrders = 5000
	baseDate := types.MustDate("1993-01-01").I
	for i := 0; i < nOrders; i++ {
		orders.Heap.Insert(pg, storage.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(nCust))),
			types.NewDate(baseDate + int64(i)/4), // correlated with insertion order
			types.NewFloat(rng.Float64() * 1000),
			types.NewString("comment " + strings.Repeat("x", rng.Intn(40))),
		})
	}
	if _, err := cat.CreateIndex(d, pg, "orders_okey", "orders", "o_orderkey"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex(d, pg, "orders_odate", "orders", "o_orderdate"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex(d, pg, "orders_ckey", "orders", "o_custkey"); err != nil {
		t.Fatal(err)
	}

	line, err := cat.CreateTable(d, "lineitem", catalog.Schema{Cols: []catalog.Column{
		{Name: "l_orderkey", Kind: types.KindInt},
		{Name: "l_quantity", Kind: types.KindFloat},
		{Name: "l_shipdate", Kind: types.KindDate},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*nOrders; i++ {
		line.Heap.Insert(pg, storage.Tuple{
			types.NewInt(int64(i / 3)),
			types.NewFloat(float64(1 + rng.Intn(50))),
			types.NewDate(baseDate + int64(rng.Intn(1500))),
		})
	}
	if _, err := cat.CreateIndex(d, pg, "line_okey", "lineitem", "l_orderkey"); err != nil {
		t.Fatal(err)
	}

	for _, tbl := range cat.Tables() {
		if err := catalog.Analyze(pg, tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func planFor(t testing.TB, cat *catalog.Catalog, src string, p Params) *Plan {
	t.Helper()
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := plan.Bind(sel, cat)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	pl, err := Optimize(q, p)
	if err != nil {
		t.Fatalf("optimize %q: %v", src, err)
	}
	return pl
}

// findNode returns the first node of type T in the tree.
func findNode[T Node](n Node) (T, bool) {
	if t, ok := n.(T); ok {
		return t, true
	}
	for _, c := range n.children() {
		if t, ok := findNode[T](c); ok {
			return t, true
		}
	}
	var zero T
	return zero, false
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.SeqPageCost = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SeqPageCost should fail")
	}
	bad = DefaultParams()
	bad.WorkMemBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero WorkMemBytes should fail")
	}
}

func TestSeqScanForUnindexedFilter(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, "SELECT c_name FROM customer WHERE c_mktsegment = 'BUILDING'", DefaultParams())
	if _, ok := findNode[*SeqScan](pl.Root); !ok {
		t.Fatalf("expected SeqScan:\n%s", pl.Explain())
	}
	scan, _ := findNode[*SeqScan](pl.Root)
	// ~1/5 of 500 customers.
	if scan.Rows() < 50 || scan.Rows() > 200 {
		t.Errorf("segment filter rows = %.0f, want ~100", scan.Rows())
	}
}

func TestIndexScanForSelectivePredicate(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, "SELECT o_total FROM orders WHERE o_orderkey = 42", DefaultParams())
	scan, ok := findNode[*IndexScan](pl.Root)
	if !ok {
		t.Fatalf("point lookup should use the index:\n%s", pl.Explain())
	}
	if scan.Lo == nil || scan.Hi == nil || scan.Lo.Key != 42 || scan.Hi.Key != 42 {
		t.Errorf("bounds = %+v %+v", scan.Lo, scan.Hi)
	}
	if scan.Rows() < 0.5 || scan.Rows() > 2 {
		t.Errorf("unique key lookup rows = %g, want ~1", scan.Rows())
	}
}

func TestSeqScanForWideRange(t *testing.T) {
	cat := fixture(t)
	// A range covering nearly everything should prefer the seq scan.
	pl := planFor(t, cat, "SELECT o_total FROM orders WHERE o_orderkey >= 0", DefaultParams())
	if _, ok := findNode[*IndexScan](pl.Root); ok {
		t.Errorf("full-range predicate should not use index:\n%s", pl.Explain())
	}
}

func TestIndexScanDateRange(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, `SELECT o_total FROM orders
		WHERE o_orderdate >= date '1993-02-01' AND o_orderdate < date '1993-02-10'`, DefaultParams())
	scan, ok := findNode[*IndexScan](pl.Root)
	if !ok {
		t.Fatalf("narrow date range should use index:\n%s", pl.Explain())
	}
	if !scan.Correlated {
		t.Error("o_orderdate is loaded in order; scan should be marked correlated")
	}
	// 9 days of ~4 orders/day.
	if scan.Rows() < 5 || scan.Rows() > 200 {
		t.Errorf("date range rows = %.0f, want ~36", scan.Rows())
	}
}

func TestHashJoinForEquiJoin(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, `SELECT count(*) FROM customer, orders WHERE c_custkey = o_custkey`, DefaultParams())
	if _, ok := findNode[*HashJoin](pl.Root); !ok {
		// An index nested loop is also acceptable for this shape.
		if _, ok2 := findNode[*IndexNLJoin](pl.Root); !ok2 {
			t.Fatalf("equi join should use hash or index-NL join:\n%s", pl.Explain())
		}
	}
	// Cardinality: each order matches exactly one customer => ~5000.
	join := pl.Root
	for {
		kids := join.children()
		if len(kids) == 0 {
			break
		}
		if _, isJ := join.(*HashJoin); isJ {
			break
		}
		if _, isJ := join.(*IndexNLJoin); isJ {
			break
		}
		join = kids[0]
	}
	if join.Rows() < 2000 || join.Rows() > 10000 {
		t.Errorf("join cardinality = %.0f, want ~5000", join.Rows())
	}
}

func TestThreeWayJoinOrdersBySelectivity(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, `SELECT count(*) FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
		  AND c_mktsegment = 'BUILDING'`, DefaultParams())
	// Just verify it plans and has two joins.
	joins := countJoins(pl.Root)
	if joins != 2 {
		t.Errorf("three-way join should have 2 join nodes, got %d:\n%s", joins, pl.Explain())
	}
}

func countJoins(n Node) int {
	c := 0
	switch n.(type) {
	case *HashJoin, *NLJoin, *IndexNLJoin, *MergeJoin:
		c = 1
	}
	for _, k := range n.children() {
		c += countJoins(k)
	}
	return c
}

func TestCrossJoinAllowedWithoutPredicate(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, `SELECT count(*) FROM customer, lineitem`, DefaultParams())
	if countJoins(pl.Root) != 1 {
		t.Fatalf("cross join should plan:\n%s", pl.Explain())
	}
}

func TestOuterJoinFixedShape(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, `SELECT c_custkey, count(o_orderkey) FROM customer
		LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%'
		GROUP BY c_custkey`, DefaultParams())
	hj, ok := findNode[*HashJoin](pl.Root)
	if !ok {
		t.Fatalf("left equi join should be a hash join:\n%s", pl.Explain())
	}
	if hj.Type != sql.LeftJoin {
		t.Error("join type should be LEFT")
	}
	// LEFT join cardinality >= outer side.
	if hj.Rows() < 500 {
		t.Errorf("left join rows = %.0f, want >= 500", hj.Rows())
	}
	// The LIKE ON-predicate is right-side-only: it must be pushed into the
	// build side, not kept as a residual.
	if len(hj.Residual) != 0 {
		t.Errorf("right-only ON conjunct should be pushed down, residual = %v", hj.Residual)
	}
	if _, ok := findNode[*HashAgg](pl.Root); !ok {
		t.Error("grouped query should have HashAggregate")
	}
}

func TestWherePushdownBlockedByOuterJoin(t *testing.T) {
	cat := fixture(t)
	// WHERE on the nullable side must not be pushed below the LEFT join.
	pl := planFor(t, cat, `SELECT count(*) FROM customer
		LEFT JOIN orders ON c_custkey = o_custkey
		WHERE o_total > 500 OR o_total IS NULL`, DefaultParams())
	f, ok := findNode[*FilterNode](pl.Root)
	if !ok {
		t.Fatalf("WHERE over nullable side should stay above the join:\n%s", pl.Explain())
	}
	if _, isJoin := f.Input.(*HashJoin); !isJoin {
		t.Errorf("filter should sit on the join, got %T", f.Input)
	}
}

func TestAggregationSortLimitPipeline(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, `SELECT c_mktsegment, count(*) FROM customer
		GROUP BY c_mktsegment HAVING count(*) > 10 ORDER BY 2 DESC LIMIT 3`, DefaultParams())
	if _, ok := pl.Root.(*Limit); !ok {
		t.Fatalf("top should be Limit:\n%s", pl.Explain())
	}
	if _, ok := findNode[*Sort](pl.Root); !ok {
		t.Error("missing Sort")
	}
	if _, ok := findNode[*HashAgg](pl.Root); !ok {
		t.Error("missing HashAggregate")
	}
	agg, _ := findNode[*HashAgg](pl.Root)
	if agg.Rows() < 2 || agg.Rows() > 10 {
		t.Errorf("group estimate = %.0f, want ~5", agg.Rows())
	}
}

func TestWhatIfCostRespondsToParams(t *testing.T) {
	cat := fixture(t)
	src := `SELECT count(*) FROM orders WHERE o_comment LIKE '%xxxxx%'`

	base := DefaultParams()
	basePlan := planFor(t, cat, src, base)

	// Doubling CPU costs (a VM with less CPU) must increase the cost of
	// this CPU-heavy query.
	slowCPU := base
	slowCPU.CPUTupleCost *= 2
	slowCPU.CPUOperatorCost *= 2
	slowPlan := planFor(t, cat, src, slowCPU)
	if slowPlan.TotalCost() <= basePlan.TotalCost() {
		t.Errorf("higher CPU costs should raise plan cost: %.1f vs %.1f",
			slowPlan.TotalCost(), basePlan.TotalCost())
	}

	// And TimePerSeqPage converts to seconds linearly.
	timed := base
	timed.TimePerSeqPage = 0.001
	tp := planFor(t, cat, src, timed)
	wantSec := tp.TotalCost() * 0.001
	if got := tp.EstimatedSeconds(); got != wantSec {
		t.Errorf("EstimatedSeconds = %g, want %g", got, wantSec)
	}
}

func TestIndexScanCostGrowsWithRandomPageCost(t *testing.T) {
	cat := fixture(t)
	tbl, _ := cat.Table("orders")
	rel := &plan.Rel{Idx: 0, Name: "orders", Table: tbl}
	q := &plan.Query{Rels: []*plan.Rel{rel}}
	ix := tbl.Indexes[2] // o_custkey: uncorrelated

	cheap := DefaultParams()
	expensive := DefaultParams()
	expensive.RandomPageCost = 40

	r := keyRange{lo: 10, hi: 20, hasLo: true, hasHi: true}
	pc := &planCtx{q: q}
	c1 := newIndexScan(rel, ix, r, 0.02, nil, pc, cheap)
	c2 := newIndexScan(rel, ix, r, 0.02, nil, pc, expensive)
	if c2.Cost().Total <= c1.Cost().Total {
		t.Errorf("random page cost should raise uncorrelated index scan cost: %v vs %v",
			c2.Cost(), c1.Cost())
	}
}

func TestHashJoinSpillsWithTinyWorkMem(t *testing.T) {
	cat := fixture(t)
	p := DefaultParams()
	p.WorkMemBytes = 4096 // force batching
	pl := planFor(t, cat, `SELECT count(*) FROM customer, orders WHERE c_custkey = o_custkey`, p)
	if hj, ok := findNode[*HashJoin](pl.Root); ok {
		if hj.Batches <= 1 {
			t.Errorf("tiny work_mem should batch the hash join, batches = %d", hj.Batches)
		}
	}
}

func TestSortSpillEstimate(t *testing.T) {
	cat := fixture(t)
	p := DefaultParams()
	p.WorkMemBytes = 4096
	pl := planFor(t, cat, `SELECT o_total FROM orders ORDER BY o_total`, p)
	srt, ok := findNode[*Sort](pl.Root)
	if !ok {
		t.Fatal("missing sort")
	}
	if srt.SpillPages <= 0 {
		t.Error("5000 rows in 4KB work_mem should spill")
	}
	big := DefaultParams()
	pl2 := planFor(t, cat, `SELECT o_total FROM orders ORDER BY o_total`, big)
	srt2, _ := findNode[*Sort](pl2.Root)
	if srt2.SpillPages > 0 {
		t.Error("4MB work_mem should hold 5000 narrow rows")
	}
}

func TestSelectivityEstimates(t *testing.T) {
	cat := fixture(t)
	cases := []struct {
		src      string
		min, max float64
	}{
		// Point on unique key: ~1 row of 5000.
		{"SELECT o_total FROM orders WHERE o_orderkey = 7", 0.5, 3},
		// Half range.
		{"SELECT o_total FROM orders WHERE o_orderkey < 2500", 1500, 3500},
		// Conjunction multiplies.
		{"SELECT o_total FROM orders WHERE o_orderkey < 2500 AND o_total < 500", 700, 1800},
		// IS NULL on a non-null column: ~0.
		{"SELECT o_total FROM orders WHERE o_total IS NULL", 0, 10},
		// Negation.
		{"SELECT o_total FROM orders WHERE o_orderkey >= 2500", 1500, 3500},
	}
	for _, c := range cases {
		pl := planFor(t, cat, c.src, DefaultParams())
		// The row estimate below the Project.
		rows := pl.Root.(*Project).Input.Rows()
		if rows < c.min || rows > c.max {
			t.Errorf("%s: rows = %.1f, want [%g, %g]", c.src, rows, c.min, c.max)
		}
	}
}

func TestExplainOutput(t *testing.T) {
	cat := fixture(t)
	p := DefaultParams()
	p.TimePerSeqPage = 0.0001
	pl := planFor(t, cat, `SELECT c_mktsegment, count(*) FROM customer, orders
		WHERE c_custkey = o_custkey GROUP BY c_mktsegment ORDER BY 1`, p)
	out := pl.Explain()
	for _, want := range []string{"Project", "HashAggregate", "Sort", "cost=", "rows=", "estimated time"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestPagesFetched(t *testing.T) {
	// Fetching 0 tuples costs nothing.
	if pagesFetched(0, 100, 1000) != 0 {
		t.Error("zero tuples")
	}
	// Fetching many tuples from few pages is bounded by distinct pages
	// when cached.
	if got := pagesFetched(10000, 100, 1000); got > 101 {
		t.Errorf("cached fetch = %g, want <= 100", got)
	}
	// Without cache, repeats cost more.
	withCache := pagesFetched(10000, 100, 1000)
	noCache := pagesFetched(10000, 100, 10)
	if noCache <= withCache {
		t.Errorf("cache should reduce fetches: %g vs %g", noCache, withCache)
	}
	// Few tuples over many pages ~ one page each.
	if got := pagesFetched(5, 100000, 0); got < 4.9 || got > 5 {
		t.Errorf("sparse fetch = %g, want ~5", got)
	}
}

func TestImpossibleIndexRange(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, "SELECT o_total FROM orders WHERE o_orderkey = 10 AND o_orderkey = 20", DefaultParams())
	inner := pl.Root.(*Project).Input
	if inner.Rows() > 1 {
		t.Errorf("contradictory equalities should estimate ~0 rows, got %g", inner.Rows())
	}
}

// TestEmptyIndexRangeKeepsItsBounds pins the range an index scan carries
// when the absorbed conjuncts cannot hold on an integer key: the bounds
// must describe an empty interval (Lo > Hi), never an open one — the
// absorbed conjuncts are no longer in the residual filter, so an unbounded
// scan would return every row.
func TestEmptyIndexRangeKeepsItsBounds(t *testing.T) {
	cat := fixture(t)
	for _, where := range []string{
		"o_orderkey = 2.5",
		"2.5 = o_orderkey",
		"o_orderkey > 1.5 AND o_orderkey < 1.9",
		"o_orderkey BETWEEN 1.5 AND 1.9",
		"o_orderkey >= 10 AND o_orderkey <= 5",
		"o_orderkey = 2.5 AND o_orderkey >= 0",
	} {
		pl := planFor(t, cat, "SELECT o_total FROM orders WHERE "+where, DefaultParams())
		is, ok := findNode[*IndexScan](pl.Root)
		if !ok {
			t.Errorf("%s: expected an index scan:\n%s", where, pl.Explain())
			continue
		}
		if is.Lo == nil || is.Hi == nil || is.Lo.Key <= is.Hi.Key {
			t.Errorf("%s: index range is not empty:\n%s", where, pl.Explain())
		}
		if len(is.Filter) != 0 {
			t.Errorf("%s: absorbed conjuncts left in the residual: %v", where, is.Filter)
		}
		if is.Rows() != 0 {
			t.Errorf("%s: empty range estimates %g rows", where, is.Rows())
		}
	}
}

func TestDistinctPlanning(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, "SELECT DISTINCT c_mktsegment FROM customer", DefaultParams())
	if _, ok := findNode[*Distinct](pl.Root); !ok {
		t.Fatalf("missing Distinct:\n%s", pl.Explain())
	}
}

func TestLimitReducesCost(t *testing.T) {
	cat := fixture(t)
	full := planFor(t, cat, "SELECT o_total FROM orders", DefaultParams())
	limited := planFor(t, cat, "SELECT o_total FROM orders LIMIT 10", DefaultParams())
	if limited.TotalCost() >= full.TotalCost() {
		t.Errorf("LIMIT should reduce cost: %g vs %g", limited.TotalCost(), full.TotalCost())
	}
}

// TestTupleFraction covers what an operator sees of LIMIT-aware path
// choice: the fraction on the Limit's EXPLAIN line, and the two counters.
func TestTupleFraction(t *testing.T) {
	cat := fixture(t)
	plans, flips := mFractionPlans.Value(), mFractionFlips.Value()

	// o_orderkey follows heap order: the 10 rows wanted start half way
	// down, so the index wins although the full scan is cheaper on Total.
	pl := planFor(t, cat, "SELECT o_total FROM orders WHERE o_orderkey >= 2500 LIMIT 10", DefaultParams())
	if _, ok := findNode[*IndexScan](pl.Root); !ok || !strings.Contains(pl.Explain(), "-> Limit (cost=8.00..8.28 rows=10) [10] [fraction=0.004]") {
		t.Errorf("want an IndexScan under Limit [fraction=0.004]:\n%s", pl.Explain())
	}
	unlimited := planFor(t, cat, "SELECT o_total FROM orders WHERE o_orderkey >= 2500", DefaultParams())
	if _, ok := findNode[*SeqScan](unlimited.Root); !ok {
		t.Errorf("without the LIMIT the sequential scan is cheapest:\n%s", unlimited.Explain())
	}
	if dp, df := mFractionPlans.Value()-plans, mFractionFlips.Value()-flips; dp != 1 || df != 1 {
		t.Errorf("optimizer.fraction.plans +%d, flips +%d; want +1, +1", dp, df)
	}

	// A Sort below the Limit needs every row; a LIMIT beyond the estimate
	// truncates nothing.
	for _, src := range []string{
		"SELECT o_total FROM orders WHERE o_orderkey >= 2500 ORDER BY o_total LIMIT 10",
		"SELECT o_total FROM orders WHERE o_orderkey >= 2500 LIMIT 100000",
	} {
		if pl := planFor(t, cat, src, DefaultParams()); !strings.Contains(pl.Explain(), "[fraction=1]") {
			t.Errorf("%s: want fraction=1:\n%s", src, pl.Explain())
		}
	}
	if dp := mFractionPlans.Value() - plans; dp != 1 {
		t.Errorf("optimizer.fraction.plans moved by %d on fraction-1 plans", dp-1)
	}
}

func TestUnanalyzedTableUsesDefaults(t *testing.T) {
	cat := catalog.New()
	d := storage.NewDiskManager()
	if _, err := cat.CreateTable(d, "t", catalog.Schema{Cols: []catalog.Column{
		{Name: "a", Kind: types.KindInt},
	}}); err != nil {
		t.Fatal(err)
	}
	pl := planFor(t, cat, "SELECT a FROM t WHERE a > 5", DefaultParams())
	if pl.Root.Rows() <= 0 {
		t.Error("default stats should give positive row estimate")
	}
}

func TestCostCPUDecomposition(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat, "SELECT count(*) FROM orders WHERE o_comment LIKE '%xy%'", DefaultParams())
	c := pl.Root.Cost()
	if c.CPU <= 0 {
		t.Fatal("plan should have CPU cost")
	}
	if c.CPU > c.Total {
		t.Fatalf("CPU component %g exceeds total %g", c.CPU, c.Total)
	}
	// A LIKE-heavy scan is mostly CPU in this fixture (orders is cached).
	if c.CPU < 0.5*c.Total {
		t.Errorf("LIKE scan should be CPU-dominated: cpu=%g total=%g", c.CPU, c.Total)
	}
}

func TestEstimateSecondsOverlapBlending(t *testing.T) {
	p := DefaultParams()
	p.TimePerSeqPage = 0.001

	// Pure CPU cost: overlap has nothing to hide.
	cpuOnly := Cost{Total: 100, CPU: 100}
	p.Overlap = 0
	serial := p.EstimateSeconds(cpuOnly)
	p.Overlap = 1
	overlapped := p.EstimateSeconds(cpuOnly)
	if serial != overlapped || serial != 0.1 {
		t.Errorf("pure CPU: serial=%g overlapped=%g, want 0.1", serial, overlapped)
	}

	// Mixed cost: full overlap hides the smaller component.
	mixed := Cost{Total: 100, CPU: 30} // io = 70
	p.Overlap = 0
	if got := p.EstimateSeconds(mixed); !approxEq(got, 0.1) {
		t.Errorf("serial mixed = %g, want 0.1", got)
	}
	p.Overlap = 1
	if got := p.EstimateSeconds(mixed); !approxEq(got, 0.07) {
		t.Errorf("overlapped mixed = %g, want 0.07 (max of components)", got)
	}
	p.Overlap = 0.5
	if got := p.EstimateSeconds(mixed); !approxEq(got, 0.085) {
		t.Errorf("half overlap = %g, want 0.085", got)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestSeqScanCacheAwareness(t *testing.T) {
	cat := fixture(t)
	tbl, _ := cat.Table("orders")
	rel := &plan.Rel{Idx: 0, Name: "orders", Table: tbl}
	q := &plan.Query{Rels: []*plan.Rel{rel}}

	big := DefaultParams()
	big.EffectiveCacheSizePages = 1 << 20 // everything cached
	small := DefaultParams()
	small.EffectiveCacheSizePages = 1 // nothing cached

	pc := &planCtx{q: q}
	cached := newSeqScan(rel, nil, 0, pc, big)
	cold := newSeqScan(rel, nil, 0, pc, small)
	if cached.Cost().Total >= cold.Cost().Total {
		t.Errorf("cached scan should be cheaper: %v vs %v", cached.Cost(), cold.Cost())
	}
	// The CPU component is identical; only I/O changes.
	if !approxEq(cached.Cost().CPU, cold.Cost().CPU) {
		t.Errorf("CPU should not depend on cache: %g vs %g", cached.Cost().CPU, cold.Cost().CPU)
	}
}

func TestMergeJoinCandidateChosenForSortedInputs(t *testing.T) {
	// Covered end-to-end in the engine tests; here just verify the
	// constructor's cost composition.
	cat := fixture(t)
	tbl, _ := cat.Table("orders")
	rel := &plan.Rel{Idx: 0, Name: "o1", Table: tbl}
	rel2 := &plan.Rel{Idx: 1, Name: "o2", Table: tbl}
	q := &plan.Query{Rels: []*plan.Rel{rel, rel2}}
	p := DefaultParams()
	pc := &planCtx{q: q}
	l := newSeqScan(rel, nil, 0, pc, p)
	r := newSeqScan(rel2, nil, 0, pc, p)
	ls := newSort(l, []SortKey{{Col: 0}}, p)
	rs := newSort(r, []SortKey{{Col: 0}}, p)
	mj := newMergeJoin(sql.InnerJoin, ls, rs, []int{0}, []int{0}, nil, 5000, pc, p)
	if mj.Cost().Total <= ls.Cost().Total+rs.Cost().Total {
		t.Error("merge join must cost more than its inputs")
	}
	if mj.Rows() != 5000 {
		t.Errorf("rows = %g", mj.Rows())
	}
	if mj.Width() != l.Width()+r.Width() {
		t.Errorf("width = %d", mj.Width())
	}
}

// TestCostBreakdown checks the per-node cost decomposition: preorder
// layout, inclusive costs matching the nodes, and self costs summing
// back to the plan total.
func TestCostBreakdown(t *testing.T) {
	cat := fixture(t)
	pl := planFor(t, cat,
		"SELECT c_name, o_total FROM customer, orders WHERE c_custkey = o_custkey AND o_total > 500",
		DefaultParams())
	bd := pl.CostBreakdown()
	if len(bd) < 4 { // project + join + two inputs at minimum
		t.Fatalf("breakdown has %d nodes:\n%s", len(bd), pl.Explain())
	}
	if bd[0].Depth != 0 || bd[0].Cost.Total != pl.TotalCost() {
		t.Fatalf("root entry = %+v, want depth 0 with total %g", bd[0], pl.TotalCost())
	}
	var selfSum float64
	for i, nc := range bd {
		if nc.Self < 0 {
			t.Errorf("node %d (%s): negative self cost %g", i, nc.Name, nc.Self)
		}
		if nc.Self > nc.Cost.Total+1e-9 {
			t.Errorf("node %d (%s): self %g exceeds inclusive %g", i, nc.Name, nc.Self, nc.Cost.Total)
		}
		if i > 0 && nc.Depth < 1 {
			t.Errorf("node %d (%s): preorder depth %d, want >= 1", i, nc.Name, nc.Depth)
		}
		selfSum += nc.Self
	}
	if !approxEq(selfSum, pl.TotalCost()) {
		t.Errorf("self costs sum to %g, want plan total %g", selfSum, pl.TotalCost())
	}
}
