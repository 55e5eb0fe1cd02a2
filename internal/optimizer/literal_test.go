package optimizer

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dbvirt/internal/catalog"
	"dbvirt/internal/obs"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// accountFixture builds and analyzes the oltp ledger's table: a_id is
// 1..rows in heap order, a_branch is 7 on a quarter of the rows (its one
// frequent value) and spread thin over the rest; both are indexed.
func accountFixture(t testing.TB, rows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	d := storage.NewDiskManager()
	pg := storage.NewDirectPager(d)
	tbl, err := cat.CreateTable(d, "account", catalog.Schema{Cols: []catalog.Column{
		{Name: "a_id", Kind: types.KindInt},
		{Name: "a_bal", Kind: types.KindFloat},
		{Name: "a_branch", Kind: types.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		branch := int64(1000 + i%4000)
		if i%4 == 0 {
			branch = 7
		}
		tbl.Heap.Insert(pg, storage.Tuple{types.NewInt(int64(i)), types.NewFloat(float64(i%977) + 0.25), types.NewInt(branch)})
	}
	for _, ix := range [][2]string{{"account_pk", "a_id"}, {"account_branch", "a_branch"}} {
		if _, err := cat.CreateIndex(d, pg, ix[0], "account", ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := catalog.Analyze(pg, tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// litTemplate is a statement template as a session keeps one: parsed and
// bound once, its parameter constants rewritten for every statement of
// its shape, planned by one prepared query.
type litTemplate struct {
	sh     sql.Shape
	tpl    *sql.Template
	params []plan.Param
	pq     *PreparedQuery
}

func newLitTemplate(t testing.TB, cat *catalog.Catalog, src string) *litTemplate {
	t.Helper()
	lt := &litTemplate{}
	if err := lt.sh.Scan(src); err != nil {
		t.Fatal(err)
	}
	tpl, err := sql.ParseTemplate(&lt.sh)
	if err != nil {
		t.Fatal(err)
	}
	q, params, err := plan.BindParams(tpl.Stmt.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(params) == 0 {
		t.Fatalf("%q has no parameters", src)
	}
	lt.tpl, lt.params, lt.pq = tpl, params, Prepare(q, params)
	return lt
}

// set points the template at src, a statement of its shape.
func (lt *litTemplate) set(t testing.TB, src string) {
	t.Helper()
	key := string(lt.sh.Key())
	if err := lt.sh.Scan(src); err != nil || string(lt.sh.Key()) != key || !lt.tpl.Matches(&lt.sh) || !lt.tpl.Set(&lt.sh) {
		t.Fatalf("%q is not a statement of the template's shape (%v)", src, err)
	}
	for _, pm := range lt.params {
		pm.Const.Val = pm.Lit.Value
	}
}

// checkFresh fails unless pl equals a fresh parse, bind and Optimize of
// src under p node for node, rows and costs exactly, with the same index
// key range.
func checkFresh(t *testing.T, cat *catalog.Catalog, src string, p Params, pl *Plan) {
	t.Helper()
	want := planFor(t, cat, src, p)
	got, exp := pl.CostBreakdown(), want.CostBreakdown()
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("%s under %+v:\nprepared\n%sfresh\n%s", src, p, pl.Explain(), want.Explain())
	}
	gs, gok := findNode[*IndexScan](pl.Root)
	ws, wok := findNode[*IndexScan](want.Root)
	if gok != wok || gok && (boundKey(gs.Lo) != boundKey(ws.Lo) || boundKey(gs.Hi) != boundKey(ws.Hi)) {
		t.Fatalf("%s: prepared index range %s, fresh %s", src, rangeOf(gs, gok), rangeOf(ws, wok))
	}
}

func boundKey(b *Bound) string {
	if b == nil {
		return "open"
	}
	return fmt.Sprint(b.Key)
}

func rangeOf(s *IndexScan, ok bool) string {
	if !ok {
		return "none"
	}
	return boundKey(s.Lo) + ".." + boundKey(s.Hi)
}

// nodeNames lists the plan's operators, preorder.
func nodeNames(pl *Plan) string {
	var names []string
	for _, n := range pl.CostBreakdown() {
		names = append(names, n.Name)
	}
	return fmt.Sprint(names)
}

// recostCounts reads the prepared-plan counters.
func recostCounts() (fast, full int64) {
	return obs.Global.Counter("whatif.recost.fast").Value(), obs.Global.Counter("whatif.recost.full").Value()
}

// TestPreparedLiteralsMatchOptimize: a prepared statement template whose
// constants change between calls plans exactly what a fresh Optimize of
// each statement does, node for node and cost for cost, with each
// IndexScan's range the statement's own, whether the literals move alone
// (oltp's range read swept across its SeqScan/IndexScan flip) or
// interleave with P(R) changes; a flip costs one full enumeration, every
// other call is a re-cost; a join with a moved literal enumerates.
func TestPreparedLiteralsMatchOptimize(t *testing.T) {
	cat := accountFixture(t, 20000)
	p := DefaultParams()
	p.EffectiveCacheSizePages = 2048

	// The range read, k ascending: one flip, so two enumerations.
	rangeSrc := func(k int) string {
		return fmt.Sprintf("SELECT a_id, a_bal FROM account WHERE a_id >= %d LIMIT 10", k)
	}
	lt := newLitTemplate(t, cat, rangeSrc(1))
	fast0, full0 := recostCounts()
	flips, last, calls := 0, "", 0
	for k := 1; k <= 3000; k += 7 {
		lt.set(t, rangeSrc(k))
		pl, err := lt.pq.Optimize(p)
		if err != nil {
			t.Fatal(err)
		}
		calls++
		checkFresh(t, cat, rangeSrc(k), p, pl)
		leaf := nodeNames(pl)
		if last != "" && leaf != last {
			flips++
		}
		last = leaf
	}
	fast, full := recostCounts()
	if flips != 1 {
		t.Fatalf("the range read's plan changed %d times over the sweep, want 1 (SeqScan → IndexScan)", flips)
	}
	if full-full0 != 2 || (fast-fast0)+(full-full0) != int64(calls) {
		t.Errorf("%d calls: %d re-costs and %d enumerations, want %d and 2", calls, fast-fast0, full-full0, calls-2)
	}

	// Point reads and ranges of every kind, interleaved with the lattice:
	// every call moves P, every other call the literal too.
	shapes := []struct {
		name string
		srcs []string
	}{
		{"point", []string{
			"SELECT a_bal FROM account WHERE a_id = 1234",
			"SELECT a_bal FROM account WHERE a_id = 99999", // above the histogram
			"SELECT a_bal FROM account WHERE a_id = 1",
		}},
		{"branch", []string{
			"SELECT a_bal FROM account WHERE a_branch = 7", // the frequent value
			"SELECT a_bal FROM account WHERE a_branch = 1234",
			"SELECT a_bal FROM account WHERE a_branch = 7",
			"SELECT a_bal FROM account WHERE a_branch = 99999",
		}},
		{"between", []string{
			"SELECT a_bal FROM account WHERE a_id >= 500 AND a_id <= 100", // contradictory
			"SELECT a_bal FROM account WHERE a_id >= 100 AND a_id <= 500",
			"SELECT a_bal FROM account WHERE a_id >= 100 AND a_id <= 19000",
			"SELECT a_bal FROM account WHERE a_id >= 9000 AND a_id <= 9000",
		}},
		{"range", []string{rangeSrc(1), rangeSrc(300), rangeSrc(5000), rangeSrc(30000)}},
	}
	for _, sh := range shapes {
		lt := newLitTemplate(t, cat, sh.srcs[0])
		for i, q := range recostLattice() {
			src := sh.srcs[i/2%len(sh.srcs)]
			lt.set(t, src)
			pl, err := lt.pq.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			checkFresh(t, cat, src, q, pl)
		}
	}
	if tbl, _ := cat.Table("account"); len(tbl.Stats.Cols[2].MCVs) == 0 || tbl.Stats.Cols[2].MCVs[0].Key != 7 {
		t.Fatalf("a_branch's most common values %v do not lead with 7", tbl.Stats.Cols[2].MCVs)
	}

	// A join: a moved literal takes the full path, every time.
	tpch := fixture(t)
	joinSrc := func(v int) string {
		return fmt.Sprintf("SELECT c_name, o_total FROM customer, orders WHERE c_custkey = o_custkey AND o_total > %d", v)
	}
	jt := newLitTemplate(t, tpch, joinSrc(500))
	vals := []int{500, 10, 990, 10, 10}
	for i, v := range vals {
		jt.set(t, joinSrc(v))
		_, full0 := recostCounts()
		pl, err := jt.pq.Optimize(p)
		if err != nil {
			t.Fatal(err)
		}
		checkFresh(t, tpch, joinSrc(v), p, pl)
		_, full := recostCounts()
		moved := i > 0 && v != vals[i-1]
		if want := i == 0 || moved; (full-full0 == 1) != want {
			t.Errorf("join at o_total > %d (literal moved: %v): %d enumerations", v, moved, full-full0)
		}
	}
}

// TestPreparedLiteralReplayAllocs: re-costing oltp's point and range
// reads under new literals allocates at most half what a full Optimize of
// the same statement does.
func TestPreparedLiteralReplayAllocs(t *testing.T) {
	cat := accountFixture(t, 20000)
	p := DefaultParams()
	for _, tc := range []struct {
		src  string
		a, b int64 // neither is the template's own literal
	}{
		{"SELECT a_bal FROM account WHERE a_id = 100", 200, 300},
		{"SELECT a_id, a_bal FROM account WHERE a_id >= 5000 LIMIT 10", 6000, 7000},
	} {
		lt := newLitTemplate(t, cat, tc.src)
		if _, err := lt.pq.Optimize(p); err != nil { // enumerates, recording the template's literal
			t.Fatal(err)
		}
		c := lt.params[0].Const
		flip := false
		set := func() {
			flip = !flip
			c.Val = types.NewInt(tc.a)
			if flip {
				c.Val = types.NewInt(tc.b)
			}
		}
		replay := testing.AllocsPerRun(100, func() {
			set()
			if _, err := lt.pq.Optimize(p); err != nil {
				panic(err)
			}
		})
		fast0, full0 := recostCounts()
		set()
		pl, err := lt.pq.Optimize(p)
		if err != nil {
			t.Fatal(err)
		}
		if fast, full := recostCounts(); fast != fast0+1 || full != full0 || pl.Root == lt.pq.rec.Load().root {
			t.Fatalf("%s: the measured calls were not literal replays", tc.src)
		}
		q := lt.pq.q
		optimize := testing.AllocsPerRun(100, func() {
			if _, err := Optimize(q, p); err != nil {
				panic(err)
			}
		})
		t.Logf("%s: literal replay %.0f allocs, Optimize %.0f", tc.src, replay, optimize)
		if replay > optimize/2 {
			t.Errorf("%s: a literal replay allocates %.0f, a full Optimize %.0f; want at most half", tc.src, replay, optimize)
		}
	}
}

// TestKeyRangePast64Conjuncts: a key range absorbs only the first 64
// conjuncts; a bound past them stays in the scan's residual filter.
func TestKeyRangePast64Conjuncts(t *testing.T) {
	cat := accountFixture(t, 2000)
	var conds []string
	for i := 1; i <= 64; i++ {
		conds = append(conds, fmt.Sprintf("a_id >= %d", i))
	}
	conds = append(conds, "a_id <= 100")
	pl := planFor(t, cat, "SELECT a_bal FROM account WHERE "+strings.Join(conds, " AND "), DefaultParams())
	ix, ok := findNode[*IndexScan](pl.Root)
	if !ok || rangeOf(ix, ok) != "64..open" {
		t.Fatalf("want an index scan over 64..open:\n%s", pl.Explain())
	}
	if len(ix.Filter) != 1 || ix.Filter[0].E.String() != "(account.a_id <= 100)" {
		t.Fatalf("residual filter %v, want the 65th conjunct", ix.Filter)
	}
}
