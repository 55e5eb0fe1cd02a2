package plan

import (
	"strings"
	"testing"

	"dbvirt/internal/catalog"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// testCatalog builds a catalog with customer/orders/lineitem-like schemas.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	d := storage.NewDiskManager()
	mustTable := func(name string, cols ...catalog.Column) {
		if _, err := cat.CreateTable(d, name, catalog.Schema{Cols: cols}); err != nil {
			t.Fatal(err)
		}
	}
	mustTable("customer",
		catalog.Column{Name: "c_custkey", Kind: types.KindInt},
		catalog.Column{Name: "c_name", Kind: types.KindString},
		catalog.Column{Name: "c_mktsegment", Kind: types.KindString},
	)
	mustTable("orders",
		catalog.Column{Name: "o_orderkey", Kind: types.KindInt},
		catalog.Column{Name: "o_custkey", Kind: types.KindInt},
		catalog.Column{Name: "o_orderdate", Kind: types.KindDate},
		catalog.Column{Name: "o_comment", Kind: types.KindString},
		catalog.Column{Name: "o_total", Kind: types.KindFloat},
	)
	mustTable("lineitem",
		catalog.Column{Name: "l_orderkey", Kind: types.KindInt},
		catalog.Column{Name: "l_quantity", Kind: types.KindFloat},
		catalog.Column{Name: "l_shipdate", Kind: types.KindDate},
	)
	return cat
}

func mustBind(t *testing.T, src string) *Query {
	t.Helper()
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := Bind(sel, testCatalog(t))
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return q
}

func bindErr(t *testing.T, src string) error {
	t.Helper()
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Bind(sel, testCatalog(t))
	if err == nil {
		t.Fatalf("expected bind error for %q", src)
	}
	return err
}

func TestBindSimple(t *testing.T) {
	q := mustBind(t, "SELECT c_name FROM customer WHERE c_custkey = 5")
	if len(q.Rels) != 1 || q.Rels[0].Table.Name != "customer" {
		t.Fatalf("rels = %v", q.Rels)
	}
	if len(q.Where) != 1 {
		t.Fatalf("where = %v", q.Where)
	}
	if q.Where[0].Rels != NewRelSet(0) {
		t.Error("conjunct rel set wrong")
	}
	if len(q.Select) != 1 || q.Select[0].Name != "c_name" {
		t.Errorf("select = %+v", q.Select)
	}
}

func TestBindStar(t *testing.T) {
	q := mustBind(t, "SELECT * FROM lineitem")
	if len(q.Select) != 3 {
		t.Errorf("star expanded to %d columns", len(q.Select))
	}
}

func TestBindJoinFlattening(t *testing.T) {
	q := mustBind(t, `SELECT c_name FROM customer JOIN orders ON c_custkey = o_custkey WHERE o_total > 100`)
	if q.OuterTree != nil {
		t.Fatal("inner joins should be flattened, not fixed")
	}
	if len(q.Rels) != 2 {
		t.Fatalf("rels = %d", len(q.Rels))
	}
	if len(q.Where) != 2 {
		t.Fatalf("where conjuncts = %d, want join cond + filter", len(q.Where))
	}
	var joinConj *Conjunct
	for i := range q.Where {
		if q.Where[i].Rels.Count() == 2 {
			joinConj = &q.Where[i]
		}
	}
	if joinConj == nil {
		t.Fatal("no two-relation conjunct found")
	}
}

func TestBindCommaJoin(t *testing.T) {
	q := mustBind(t, `SELECT count(*) FROM customer, orders WHERE c_custkey = o_custkey`)
	if len(q.Rels) != 2 || q.OuterTree != nil {
		t.Fatal("comma join should produce flat rels")
	}
}

func TestBindOuterJoinTree(t *testing.T) {
	q := mustBind(t, `SELECT c_custkey, count(o_orderkey) FROM customer
		LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_comment NOT LIKE '%x%'
		GROUP BY c_custkey`)
	if q.OuterTree == nil {
		t.Fatal("outer join should set OuterTree")
	}
	if q.OuterTree.Type != sql.LeftJoin {
		t.Error("join type lost")
	}
	if len(q.OuterTree.On) != 2 {
		t.Errorf("ON conjuncts = %d, want 2", len(q.OuterTree.On))
	}
	if q.OuterTree.Left.Rel == nil || q.OuterTree.Left.Rel.Table.Name != "customer" {
		t.Error("left leaf wrong")
	}
	if !q.Grouped || len(q.GroupBy) != 1 || len(q.Aggs) != 1 {
		t.Errorf("grouping: grouped=%v groupby=%d aggs=%d", q.Grouped, len(q.GroupBy), len(q.Aggs))
	}
}

func TestBindOuterJoinMixedWithCommaFails(t *testing.T) {
	bindErr(t, `SELECT c_name FROM lineitem, customer LEFT JOIN orders ON c_custkey = o_custkey`)
}

func TestBindAmbiguousColumn(t *testing.T) {
	// c_custkey appears only in customer; o_custkey only in orders; invent a clash via aliases.
	err := bindErr(t, "SELECT c_custkey FROM customer a, customer b")
	if !strings.Contains(err.Error(), "ambiguous") && !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestBindDuplicateAlias(t *testing.T) {
	err := bindErr(t, "SELECT 1 FROM customer c, orders c")
	if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestBindUnknownColumnAndTable(t *testing.T) {
	bindErr(t, "SELECT nope FROM customer")
	bindErr(t, "SELECT c_name FROM nonexistent")
	bindErr(t, "SELECT x.c_name FROM customer")
	bindErr(t, "SELECT customer.nope FROM customer")
}

func TestBindTypeErrors(t *testing.T) {
	bindErr(t, "SELECT c_name + 1 FROM customer")              // arithmetic on string
	bindErr(t, "SELECT c_name FROM customer WHERE c_name = 1") // string vs int
	bindErr(t, "SELECT c_name FROM customer WHERE c_custkey LIKE '%x%'")
	bindErr(t, "SELECT c_name FROM customer WHERE c_custkey") // non-boolean WHERE
	bindErr(t, "SELECT NOT c_custkey FROM customer")          // NOT on int
	bindErr(t, "SELECT -c_name FROM customer")                // negate string
	bindErr(t, "SELECT c_name FROM customer WHERE c_custkey BETWEEN 'a' AND 'b'")
	bindErr(t, "SELECT c_name FROM customer WHERE c_custkey IN (1, 'x')")
}

func TestBindAggregates(t *testing.T) {
	q := mustBind(t, `SELECT c_mktsegment, count(*), sum(c_custkey), avg(c_custkey)
		FROM customer GROUP BY c_mktsegment`)
	if !q.Grouped || len(q.Aggs) != 3 {
		t.Fatalf("aggs = %d", len(q.Aggs))
	}
	if q.Aggs[0].Func != sql.AggCount || !q.Aggs[0].Star {
		t.Error("count(*) spec wrong")
	}
	if q.Aggs[1].Kind != types.KindInt {
		t.Errorf("sum(int) kind = %v", q.Aggs[1].Kind)
	}
	if q.Aggs[2].Kind != types.KindFloat {
		t.Errorf("avg kind = %v", q.Aggs[2].Kind)
	}
	// First select item references the group key.
	cr, ok := q.Select[0].E.(*ColRef)
	if !ok || cr.Rel != GroupScope || cr.Col != 0 {
		t.Errorf("group key ref = %#v", q.Select[0].E)
	}
	// Second references agg 0.
	cr, ok = q.Select[1].E.(*ColRef)
	if !ok || cr.Rel != AggScope || cr.Col != 0 {
		t.Errorf("agg ref = %#v", q.Select[1].E)
	}
}

func TestBindAggDeduplication(t *testing.T) {
	q := mustBind(t, `SELECT count(*), count(*) + 1 FROM customer`)
	if len(q.Aggs) != 1 {
		t.Errorf("identical aggregates should be shared, got %d", len(q.Aggs))
	}
	if len(q.GroupBy) != 0 || !q.Grouped {
		t.Error("global aggregation should be grouped with no keys")
	}
}

func TestBindGroupByExprMatch(t *testing.T) {
	q := mustBind(t, `SELECT o_total * 2, count(*) FROM orders GROUP BY o_total * 2`)
	cr, ok := q.Select[0].E.(*ColRef)
	if !ok || cr.Rel != GroupScope {
		t.Errorf("matching group expr should become GroupScope ref: %#v", q.Select[0].E)
	}
}

func TestBindNonGroupedColumnRejected(t *testing.T) {
	err := bindErr(t, "SELECT c_name, count(*) FROM customer GROUP BY c_mktsegment")
	if !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("unexpected error: %v", err)
	}
	bindErr(t, "SELECT c_name FROM customer GROUP BY c_mktsegment")
	bindErr(t, "SELECT * FROM customer GROUP BY c_mktsegment")
}

func TestBindAggregateInWhereRejected(t *testing.T) {
	bindErr(t, "SELECT c_name FROM customer WHERE count(*) > 1")
	bindErr(t, "SELECT c_name FROM customer HAVING c_name LIKE 'a%'") // HAVING without grouping
}

func TestBindHaving(t *testing.T) {
	q := mustBind(t, `SELECT c_mktsegment, count(*) FROM customer
		GROUP BY c_mktsegment HAVING count(*) > 10`)
	if q.Having == nil {
		t.Fatal("having lost")
	}
}

func TestBindOrderBy(t *testing.T) {
	q := mustBind(t, `SELECT c_name, c_custkey FROM customer ORDER BY 2 DESC, c_name`)
	if len(q.OrderBy) != 2 {
		t.Fatal("order keys lost")
	}
	if q.OrderBy[0].Col != 1 || !q.OrderBy[0].Desc {
		t.Errorf("order key 0 = %+v", q.OrderBy[0])
	}
	if q.OrderBy[1].Col != 0 || q.OrderBy[1].Desc {
		t.Errorf("order key 1 = %+v", q.OrderBy[1])
	}
	// ORDER BY column not in select list adds a hidden output.
	q = mustBind(t, `SELECT c_name FROM customer ORDER BY c_custkey`)
	if len(q.Select) != 2 || !q.Select[1].Hidden {
		t.Errorf("hidden order column missing: %+v", q.Select)
	}
	bindErr(t, "SELECT c_name FROM customer ORDER BY 5")
}

func TestBindOrderByAggregate(t *testing.T) {
	q := mustBind(t, `SELECT c_mktsegment FROM customer GROUP BY c_mktsegment ORDER BY count(*) DESC`)
	if len(q.Aggs) != 1 {
		t.Fatalf("aggs = %d", len(q.Aggs))
	}
	if len(q.Select) != 2 || !q.Select[1].Hidden {
		t.Error("hidden aggregate order column missing")
	}
}

func TestRelSetOps(t *testing.T) {
	s := NewRelSet(0, 3)
	if !s.Has(0) || !s.Has(3) || s.Has(1) {
		t.Error("Has failed")
	}
	if s.Count() != 2 {
		t.Error("Count failed")
	}
	if !NewRelSet(0).SubsetOf(s) || s.SubsetOf(NewRelSet(0)) {
		t.Error("SubsetOf failed")
	}
}

func TestExprEqual(t *testing.T) {
	q1 := mustBind(t, "SELECT c_custkey + 1 FROM customer")
	q2 := mustBind(t, "SELECT c_custkey + 1 FROM customer")
	q3 := mustBind(t, "SELECT c_custkey + 2 FROM customer")
	if !Equal(q1.Select[0].E, q2.Select[0].E) {
		t.Error("identical expressions should be equal")
	}
	if Equal(q1.Select[0].E, q3.Select[0].E) {
		t.Error("different constants should differ")
	}
}

// --- evaluation tests ---

func evalOne(t *testing.T, src string, row Row, lay Layout) types.Value {
	t.Helper()
	q := mustBind(t, src)
	ev, err := Compile(q.Select[0].E, lay, NullSink{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ev(row)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func custRow(key int64, name, seg string) Row {
	return Row{types.NewInt(key), types.NewString(name), types.NewString(seg)}
}

func TestEvalArithmetic(t *testing.T) {
	lay := SingleRel(0)
	if v := evalOne(t, "SELECT c_custkey * 2 + 1 FROM customer", custRow(5, "a", "b"), lay); v.I != 11 {
		t.Errorf("5*2+1 = %v", v)
	}
	if v := evalOne(t, "SELECT c_custkey / 2 FROM customer", custRow(7, "a", "b"), lay); v.I != 3 {
		t.Errorf("int division 7/2 = %v", v)
	}
	if v := evalOne(t, "SELECT c_custkey / 2.0 FROM customer", custRow(7, "a", "b"), lay); v.F != 3.5 {
		t.Errorf("float division = %v", v)
	}
	if v := evalOne(t, "SELECT -c_custkey FROM customer", custRow(7, "a", "b"), lay); v.I != -7 {
		t.Errorf("negation = %v", v)
	}
}

func TestEvalDivisionByZero(t *testing.T) {
	q := mustBind(t, "SELECT c_custkey / 0 FROM customer")
	ev, _ := Compile(q.Select[0].E, SingleRel(0), NullSink{})
	if _, err := ev(custRow(1, "a", "b")); err == nil {
		t.Error("division by zero should error")
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	lay := SingleRel(0)
	cases := map[string]bool{
		"SELECT c_custkey = 5 FROM customer":                      true,
		"SELECT c_custkey <> 5 FROM customer":                     false,
		"SELECT c_custkey < 10 AND c_custkey > 1 FROM customer":   true,
		"SELECT c_custkey > 10 OR c_name = 'alice' FROM customer": true,
		"SELECT NOT c_custkey = 5 FROM customer":                  false,
		"SELECT c_custkey BETWEEN 1 AND 10 FROM customer":         true,
		"SELECT c_custkey NOT BETWEEN 1 AND 10 FROM customer":     false,
		"SELECT c_custkey IN (1, 5, 9) FROM customer":             true,
		"SELECT c_custkey NOT IN (1, 5, 9) FROM customer":         false,
		"SELECT c_name LIKE 'al%' FROM customer":                  true,
		"SELECT c_name NOT LIKE '%z%' FROM customer":              true,
		"SELECT c_name IS NULL FROM customer":                     false,
		"SELECT c_name IS NOT NULL FROM customer":                 true,
	}
	for src, want := range cases {
		v := evalOne(t, src, custRow(5, "alice", "seg"), lay)
		if v.IsNull() || v.Bool() != want {
			t.Errorf("%s = %v, want %v", src, v, want)
		}
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	lay := SingleRel(0)
	nullRow := Row{types.Null, types.Null, types.NewString("s")}
	// NULL = 5 -> NULL
	if v := evalOne(t, "SELECT c_custkey = 5 FROM customer", nullRow, lay); !v.IsNull() {
		t.Errorf("NULL = 5 should be NULL, got %v", v)
	}
	// NULL AND false -> false
	if v := evalOne(t, "SELECT c_custkey = 5 AND c_mktsegment = 'x' FROM customer", nullRow, lay); v.IsNull() || v.Bool() {
		t.Errorf("NULL AND false = %v, want false", v)
	}
	// NULL OR true -> true
	if v := evalOne(t, "SELECT c_custkey = 5 OR c_mktsegment = 's' FROM customer", nullRow, lay); v.IsNull() || !v.Bool() {
		t.Errorf("NULL OR true = %v, want true", v)
	}
	// NOT NULL -> NULL
	if v := evalOne(t, "SELECT NOT c_custkey = 5 FROM customer", nullRow, lay); !v.IsNull() {
		t.Errorf("NOT NULL = %v, want NULL", v)
	}
	// NULL IN (...) -> NULL
	if v := evalOne(t, "SELECT c_custkey IN (1, 2) FROM customer", nullRow, lay); !v.IsNull() {
		t.Errorf("NULL IN = %v, want NULL", v)
	}
	// 5 IN (1, NULL) -> NULL
	if v := evalOne(t, "SELECT c_custkey IN (1, NULL) FROM customer", custRow(5, "a", "b"), lay); !v.IsNull() {
		t.Errorf("5 IN (1, NULL) = %v, want NULL", v)
	}
	// 1 IN (1, NULL) -> true
	if v := evalOne(t, "SELECT c_custkey IN (1, NULL) FROM customer", custRow(1, "a", "b"), lay); v.IsNull() || !v.Bool() {
		t.Errorf("1 IN (1, NULL) = %v, want true", v)
	}
	// NULL IS NULL -> true
	if v := evalOne(t, "SELECT c_custkey IS NULL FROM customer", nullRow, lay); v.IsNull() || !v.Bool() {
		t.Errorf("NULL IS NULL = %v", v)
	}
	// NULL BETWEEN -> NULL
	if v := evalOne(t, "SELECT c_custkey BETWEEN 1 AND 2 FROM customer", nullRow, lay); !v.IsNull() {
		t.Errorf("NULL BETWEEN = %v", v)
	}
	// Arithmetic with NULL -> NULL
	if v := evalOne(t, "SELECT c_custkey + 1 FROM customer", nullRow, lay); !v.IsNull() {
		t.Errorf("NULL + 1 = %v", v)
	}
}

func TestEvalDateComparison(t *testing.T) {
	lay := NewLayout()
	lay.Base[0] = 0
	q := mustBind(t, "SELECT o_orderdate < date '1995-01-01' FROM orders")
	ev, err := Compile(q.Select[0].E, lay, NullSink{})
	if err != nil {
		t.Fatal(err)
	}
	row := Row{types.NewInt(1), types.NewInt(1), types.MustDate("1994-06-15"), types.NewString(""), types.NewFloat(0)}
	v, err := ev(row)
	if err != nil || v.IsNull() || !v.Bool() {
		t.Errorf("date comparison = %v, %v", v, err)
	}
}

type countingSink struct{ ops float64 }

func (c *countingSink) AccountCPU(ops float64) { c.ops += ops }

func TestEvalChargesCPU(t *testing.T) {
	q := mustBind(t, "SELECT c_custkey > 1 AND c_custkey < 10 FROM customer")
	sink := &countingSink{}
	ev, err := Compile(q.Select[0].E, SingleRel(0), sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev(custRow(5, "a", "b")); err != nil {
		t.Fatal(err)
	}
	// AND + two comparisons = 3 operator charges.
	if want := float64(3 * OpsPerOperator); sink.ops != want {
		t.Errorf("ops = %g, want %g", sink.ops, want)
	}
}

func TestEvalLikeChargesByLength(t *testing.T) {
	q := mustBind(t, "SELECT c_name LIKE '%x%' FROM customer")
	sink := &countingSink{}
	ev, _ := Compile(q.Select[0].E, SingleRel(0), sink)
	ev(custRow(1, strings.Repeat("a", 10), "s"))
	short := sink.ops
	sink.ops = 0
	ev(custRow(1, strings.Repeat("a", 1000), "s"))
	if sink.ops <= short {
		t.Errorf("long string should cost more: %g vs %g", sink.ops, short)
	}
}

func TestEvalShortCircuitSavesCPU(t *testing.T) {
	q := mustBind(t, "SELECT c_custkey = 99 AND c_name LIKE '%x%' FROM customer")
	sink := &countingSink{}
	ev, _ := Compile(q.Select[0].E, SingleRel(0), sink)
	ev(custRow(1, strings.Repeat("a", 1000), "s")) // left is false
	withShort := sink.ops
	sink.ops = 0
	ev(custRow(99, strings.Repeat("a", 1000), "s")) // left is true, LIKE runs
	if withShort >= sink.ops {
		t.Errorf("short circuit should be cheaper: %g vs %g", withShort, sink.ops)
	}
}

func TestLayoutOffsets(t *testing.T) {
	lay := NewLayout()
	lay.Base[0] = 0
	lay.Base[1] = 3
	c := &ColRef{Rel: 1, Col: 2}
	off, err := lay.Offset(c)
	if err != nil || off != 5 {
		t.Errorf("offset = %d, %v", off, err)
	}
	if _, err := lay.Offset(&ColRef{Rel: 9}); err == nil {
		t.Error("unknown rel should error")
	}
	pa := PostAgg(2)
	if off, _ := pa.Offset(&ColRef{Rel: GroupScope, Col: 1}); off != 1 {
		t.Error("group offset")
	}
	if off, _ := pa.Offset(&ColRef{Rel: AggScope, Col: 0}); off != 2 {
		t.Error("agg offset")
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(types.Null) || Truthy(types.NewBool(false)) || !Truthy(types.NewBool(true)) {
		t.Error("Truthy semantics wrong")
	}
}
