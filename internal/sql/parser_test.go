package sql

import (
	"strings"
	"testing"

	"dbvirt/internal/types"
)

func mustSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	sel, err := ParseSelect(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT a, b FROM t")
	if len(sel.Items) != 2 || len(sel.From) != 1 {
		t.Fatalf("items=%d from=%d", len(sel.Items), len(sel.From))
	}
	ref, ok := sel.From[0].(*TableRef)
	if !ok || ref.Table != "t" {
		t.Fatalf("from = %#v", sel.From[0])
	}
	c, ok := sel.Items[0].Expr.(*ColumnRef)
	if !ok || c.Column != "a" {
		t.Fatalf("item0 = %#v", sel.Items[0].Expr)
	}
}

func TestParseStar(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t")
	if !sel.Items[0].Star {
		t.Error("expected star item")
	}
}

func TestParseDistinctAndLimit(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT a FROM t LIMIT 10")
	if !sel.Distinct {
		t.Error("DISTINCT lost")
	}
	if sel.Limit == nil || *sel.Limit != 10 {
		t.Error("LIMIT lost")
	}
	for src, want := range map[string]int64{
		"SELECT a FROM t LIMIT 0":                   0,
		"SELECT a FROM t LIMIT 9223372036854775807": 9223372036854775807,
	} {
		if sel := mustSelect(t, src); sel.Limit == nil || *sel.Limit != want {
			t.Errorf("%s: LIMIT %v, want %d", src, sel.Limit, want)
		}
	}
	// A count that overflows int64 is reported where it stands, not at
	// whatever follows it.
	_, err := Parse("SELECT a FROM t LIMIT 99999999999999999999")
	if want := `sql: invalid LIMIT count at "99999999999999999999" (offset 22)`; err == nil || err.Error() != want {
		t.Errorf("overflowing LIMIT: %v, want %s", err, want)
	}
}

// TestParseLiteralErrorPositions: a literal that fails conversion is
// reported where it begins, not at whatever follows it.
func TestParseLiteralErrorPositions(t *testing.T) {
	for src, want := range map[string]string{
		"SELECT a FROM t WHERE a = 99999999999999999999":      `sql: invalid integer "99999999999999999999" at "99999999999999999999" (offset 26)`,
		"SELECT a FROM t WHERE d = DATE 'bad' AND a = 1":      `sql: invalid date literal "bad" at "DATE" (offset 26)`,
		"SELECT a FROM t WHERE d = date '1995-02-29' LIMIT 3": `sql: invalid date literal "1995-02-29" at "date" (offset 26)`,
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %s", src, err, want)
		}
	}
}

func TestParseAliases(t *testing.T) {
	sel := mustSelect(t, "SELECT a AS x, b y FROM orders o, lineitem AS l")
	if sel.Items[0].Alias != "x" || sel.Items[1].Alias != "y" {
		t.Errorf("aliases: %q %q", sel.Items[0].Alias, sel.Items[1].Alias)
	}
	if sel.From[0].(*TableRef).Name() != "o" || sel.From[1].(*TableRef).Name() != "l" {
		t.Error("table aliases lost")
	}
}

func TestParseWhereExpressionTree(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a = 1 AND b < 2.5 OR NOT c >= 3")
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top = %#v", sel.Where)
	}
	and, ok := or.L.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("left = %#v", or.L)
	}
	if _, ok := or.R.(*NotExpr); !ok {
		t.Fatalf("right = %#v", or.R)
	}
}

func TestParsePrecedenceArithmetic(t *testing.T) {
	sel := mustSelect(t, "SELECT a + b * c - d FROM t")
	// ((a + (b*c)) - d)
	if got := sel.Items[0].Expr.String(); got != "((a + (b * c)) - d)" {
		t.Errorf("precedence tree = %s", got)
	}
}

func TestParseComparisonOperators(t *testing.T) {
	for text, op := range map[string]BinaryOp{
		"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	} {
		sel := mustSelect(t, "SELECT a FROM t WHERE a "+text+" 5")
		be, ok := sel.Where.(*BinaryExpr)
		if !ok || be.Op != op {
			t.Errorf("operator %q parsed as %#v", text, sel.Where)
		}
	}
}

func TestParseBetweenInLike(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b IN (1, 2, 3) AND c LIKE '%x%' AND d NOT LIKE 'y%' AND e NOT BETWEEN 0 AND 1 AND f NOT IN (9)")
	s := sel.Where.String()
	for _, want := range []string{"BETWEEN 1 AND 10", "IN (1, 2, 3)", "LIKE '%x%'", "NOT LIKE 'y%'", "NOT BETWEEN 0 AND 1", "NOT IN (9)"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %s", want, s)
		}
	}
}

func TestParseIsNull(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a IS NULL AND b IS NOT NULL")
	s := sel.Where.String()
	if !strings.Contains(s, "a IS NULL") || !strings.Contains(s, "b IS NOT NULL") {
		t.Errorf("IS NULL parse: %s", s)
	}
}

func TestParseNotPrecedence(t *testing.T) {
	// NOT binds tighter than AND: NOT a = 1 AND b = 2 is (NOT (a=1)) AND (b=2).
	sel := mustSelect(t, "SELECT x FROM t WHERE NOT a = 1 AND b = 2")
	and, ok := sel.Where.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("top = %#v", sel.Where)
	}
	if _, ok := and.L.(*NotExpr); !ok {
		t.Fatalf("left should be NOT, got %#v", and.L)
	}
}

func TestParseAggregates(t *testing.T) {
	sel := mustSelect(t, "SELECT count(*), sum(a), avg(b), min(c), max(d + 1) FROM t")
	wants := []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax}
	for i, want := range wants {
		agg, ok := sel.Items[i].Expr.(*AggExpr)
		if !ok || agg.Func != want {
			t.Errorf("item %d = %#v", i, sel.Items[i].Expr)
		}
	}
	if !sel.Items[0].Expr.(*AggExpr).Star {
		t.Error("count(*) star lost")
	}
	if _, err := Parse("SELECT sum(*) FROM t"); err == nil {
		t.Error("sum(*) must be rejected")
	}
}

func TestParseGroupByHavingOrderBy(t *testing.T) {
	sel := mustSelect(t, `SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 5 ORDER BY 2 DESC, a ASC`)
	if len(sel.GroupBy) != 1 {
		t.Fatal("group by lost")
	}
	if sel.Having == nil {
		t.Fatal("having lost")
	}
	if len(sel.OrderBy) != 2 {
		t.Fatal("order by lost")
	}
	if sel.OrderBy[0].Position != 2 || !sel.OrderBy[0].Desc {
		t.Errorf("order item 0 = %+v", sel.OrderBy[0])
	}
	if sel.OrderBy[1].Expr == nil || sel.OrderBy[1].Desc {
		t.Errorf("order item 1 = %+v", sel.OrderBy[1])
	}
}

func TestParseJoins(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y`)
	top, ok := sel.From[0].(*JoinExpr)
	if !ok || top.Type != LeftJoin {
		t.Fatalf("top join = %#v", sel.From[0])
	}
	inner, ok := top.Left.(*JoinExpr)
	if !ok || inner.Type != InnerJoin {
		t.Fatalf("inner join = %#v", top.Left)
	}
	if inner.Left.(*TableRef).Table != "a" || inner.Right.(*TableRef).Table != "b" {
		t.Error("join operands wrong")
	}
	if top.Right.(*TableRef).Table != "c" {
		t.Error("outer operand wrong")
	}
}

func TestParseInnerJoinKeyword(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM a INNER JOIN b ON a.x = b.x`)
	if sel.From[0].(*JoinExpr).Type != InnerJoin {
		t.Error("INNER JOIN parse failed")
	}
}

func TestParseQualifiedColumns(t *testing.T) {
	sel := mustSelect(t, "SELECT t.a FROM t WHERE t.a > 0")
	c := sel.Items[0].Expr.(*ColumnRef)
	if c.Table != "t" || c.Column != "a" {
		t.Errorf("qualified ref = %+v", c)
	}
}

func TestParseLiterals(t *testing.T) {
	sel := mustSelect(t, `SELECT 1, -2, 3.5, 'it''s', true, false, null, date '1995-03-15' FROM t`)
	vals := []types.Value{
		types.NewInt(1), types.NewInt(-2), types.NewFloat(3.5),
		types.NewString("it's"), types.NewBool(true), types.NewBool(false),
		types.Null, types.MustDate("1995-03-15"),
	}
	for i, want := range vals {
		lit, ok := sel.Items[i].Expr.(*Literal)
		if !ok {
			t.Fatalf("item %d not literal: %#v", i, sel.Items[i].Expr)
		}
		if lit.Value.Kind != want.Kind {
			t.Errorf("item %d kind = %v, want %v", i, lit.Value.Kind, want.Kind)
		}
		if !want.IsNull() && !types.Equal(lit.Value, want) && want.Kind != types.KindBool {
			t.Errorf("item %d = %v, want %v", i, lit.Value, want)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse("CREATE TABLE orders (o_orderkey INT, o_total FLOAT, o_comment VARCHAR(100), o_flag BOOL, o_date DATE)")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "orders" || len(ct.Columns) != 5 {
		t.Fatalf("create table = %+v", ct)
	}
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool, types.KindDate}
	for i, k := range kinds {
		if ct.Columns[i].Kind != k {
			t.Errorf("col %d kind = %v, want %v", i, ct.Columns[i].Kind, k)
		}
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmt, err := Parse("CREATE INDEX ix_ok ON orders (o_orderkey)")
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(*CreateIndexStmt)
	if ci.Name != "ix_ok" || ci.Table != "orders" || ci.Column != "o_orderkey" {
		t.Errorf("create index = %+v", ci)
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 2 {
		t.Errorf("insert = %+v", ins)
	}
}

func TestParseAnalyzeAndExplain(t *testing.T) {
	stmt, err := Parse("ANALYZE orders")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*AnalyzeStmt).Table != "orders" {
		t.Error("analyze table lost")
	}
	stmt, err = Parse("ANALYZE")
	if err != nil || stmt.(*AnalyzeStmt).Table != "" {
		t.Error("bare analyze failed")
	}
	stmt, err = Parse("EXPLAIN SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*ExplainStmt).Query == nil {
		t.Error("explain query lost")
	}
	if _, err := Parse("EXPLAIN INSERT INTO t VALUES (1)"); err == nil {
		t.Error("EXPLAIN of non-select should fail")
	}
}

func TestParseTrailingSemicolonAndComments(t *testing.T) {
	if _, err := Parse("SELECT a FROM t;"); err != nil {
		t.Errorf("trailing semicolon: %v", err)
	}
	if _, err := Parse("SELECT a -- comment here\nFROM t"); err != nil {
		t.Errorf("comment: %v", err)
	}
}

func TestParseTPCHLikeQueries(t *testing.T) {
	queries := []string{
		`SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
		        sum(l_extendedprice * (1 - l_discount)), avg(l_quantity), count(*)
		 FROM lineitem WHERE l_shipdate <= date '1998-09-01'
		 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
		`SELECT count(*) FROM orders, lineitem
		 WHERE l_orderkey = o_orderkey AND o_orderdate >= date '1993-07-01'
		   AND o_orderdate < date '1993-10-01' AND l_commitdate < l_receiptdate`,
		`SELECT c_custkey, count(o_orderkey) FROM customer
		 LEFT OUTER JOIN orders ON c_custkey = o_custkey
		   AND o_comment NOT LIKE '%special%requests%'
		 GROUP BY c_custkey`,
		`SELECT sum(l_extendedprice * l_discount) FROM lineitem
		 WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
		   AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,
		`SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority ORDER BY 2 DESC LIMIT 5`,
	}
	for i, q := range queries {
		if _, err := ParseSelect(q); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t LIMIT -1",
		"SELECT a FROM t extra garbage ok",
		"CREATE VIEW v",
		"CREATE TABLE t (a BLOB)",
		"CREATE TABLE t ()",
		"INSERT INTO t (1)",
		"SELECT a FROM t WHERE a LIKE b",
		"SELECT a FROM t WHERE a IS 5",
		"SELECT a FROM a JOIN b",
		"SELECT 'unterminated FROM t",
		"SELECT 1.2.3 FROM t",
		"SELECT a FROM t WHERE a @ 5",
		"SELECT 5x FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestParseSelectRejectsNonSelect(t *testing.T) {
	if _, err := ParseSelect("ANALYZE t"); err == nil {
		t.Error("ParseSelect should reject non-select")
	}
}

func TestExprStringRoundTrips(t *testing.T) {
	// The String form of a parsed expression should re-parse to the same
	// String form (a weak but useful idempotence property).
	exprs := []string{
		"((a + b) * 2)",
		"(a BETWEEN 1 AND 2)",
		"(name LIKE '%x%')",
		"(a IS NOT NULL)",
		"NOT (a = 1)",
		"COUNT(*)",
		"SUM((a * b))",
	}
	for _, s := range exprs {
		sel := mustSelect(t, "SELECT "+s+" FROM t")
		first := sel.Items[0].Expr.String()
		sel2 := mustSelect(t, "SELECT "+first+" FROM t")
		if second := sel2.Items[0].Expr.String(); second != first {
			t.Errorf("not idempotent: %q -> %q", first, second)
		}
	}
}

func TestParseDeleteUpdate(t *testing.T) {
	stmt, err := Parse("DELETE FROM items WHERE qty < 5")
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*DeleteStmt)
	if del.Table != "items" || del.Where == nil {
		t.Errorf("delete = %+v", del)
	}
	stmt, err = Parse("DELETE FROM items")
	if err != nil || stmt.(*DeleteStmt).Where != nil {
		t.Errorf("bare delete: %v %+v", err, stmt)
	}
	stmt, err = Parse("UPDATE items SET qty = qty + 1, name = 'x' WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(*UpdateStmt)
	if upd.Table != "items" || len(upd.Sets) != 2 || upd.Where == nil {
		t.Errorf("update = %+v", upd)
	}
	if upd.Sets[0].Column != "qty" || upd.Sets[1].Column != "name" {
		t.Errorf("set columns = %+v", upd.Sets)
	}
	for _, bad := range []string{
		"DELETE items",
		"DELETE FROM",
		"UPDATE items",
		"UPDATE items SET",
		"UPDATE items SET qty",
		"UPDATE items SET qty = ",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}

// TestUnsupportedSyntaxErrors pins the positioned error each syntax form
// other dialects accept gets here: the parser names the first token it
// cannot take, at its byte offset.
func TestUnsupportedSyntaxErrors(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"SELECT a FROM t LIMIT 5 OFFSET 10", `sql: unexpected input after statement at "OFFSET" (offset 24)`},
		{"INSERT INTO t VALUES (1) RETURNING a", `sql: unexpected input after statement at "RETURNING" (offset 25)`},
		{"UPDATE t SET a = 2 RETURNING a", `sql: unexpected input after statement at "RETURNING" (offset 19)`},
		{"DELETE FROM t WHERE a = 1 RETURNING a", `sql: unexpected input after statement at "RETURNING" (offset 26)`},
		{"ALTER TABLE t ADD COLUMN b INT", `sql: expected a statement at "ALTER" (offset 0)`},
		{"CREATE TABLE IF NOT EXISTS t (a INT)", `sql: expected "(" at "NOT" (offset 16)`},
		{"CREATE INDEX IF NOT EXISTS i ON t (a)", `sql: expected ON at "NOT" (offset 16)`},
		{"DROP TABLE IF EXISTS t", `sql: expected a statement at "DROP" (offset 0)`},
		{"CREATE DATABASE d", `sql: expected TABLE or INDEX after CREATE at "DATABASE" (offset 7)`},
		{"DROP DATABASE d", `sql: expected a statement at "DROP" (offset 0)`},
		{"USE d", `sql: expected a statement at "USE" (offset 0)`},
	} {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q): error %v, want %s", c.src, err, c.want)
		}
	}
}
