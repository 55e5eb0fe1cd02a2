package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dbvirt/internal/plan"
	"dbvirt/internal/types"
	"dbvirt/internal/vm"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	cfg := vm.DefaultMachineConfig()
	m := vm.MustMachine(cfg)
	v, err := m.NewVM("test", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(NewDatabase(), v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustExec(t *testing.T, s *Session, src string) {
	t.Helper()
	if _, err := s.Exec(src); err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
}

func query(t *testing.T, s *Session, src string) []plan.Row {
	t.Helper()
	rows, _, err := s.QueryRows(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return rows
}

// setupPeople creates a small table with known contents.
func setupPeople(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE people (id INT, name TEXT, age INT, score FLOAT, joined DATE)`)
	rows := []string{
		`(1, 'alice', 30, 85.5, date '2020-01-15')`,
		`(2, 'bob', 25, 91.0, date '2021-06-01')`,
		`(3, 'carol', 35, 78.25, date '2019-03-20')`,
		`(4, 'dave', 30, NULL, date '2022-11-05')`,
		`(5, 'eve', NULL, 99.9, date '2020-07-30')`,
	}
	mustExec(t, s, "INSERT INTO people VALUES "+strings.Join(rows, ", "))
	mustExec(t, s, "ANALYZE people")
}

func TestCreateInsertSelect(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows := query(t, s, "SELECT id, name FROM people ORDER BY id")
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][0].I != 1 || rows[0][1].S != "alice" {
		t.Errorf("row 0 = %v", rows[0])
	}
	if rows[4][0].I != 5 || rows[4][1].S != "eve" {
		t.Errorf("row 4 = %v", rows[4])
	}
}

func TestSelectStar(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows, cols, err := s.QueryRows("SELECT * FROM people ORDER BY id LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 5 || cols[0] != "id" || cols[4] != "joined" {
		t.Errorf("columns = %v", cols)
	}
	if len(rows) != 1 || len(rows[0]) != 5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestWhereFilters(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	cases := []struct {
		where string
		ids   []int64
	}{
		{"age = 30", []int64{1, 4}},
		{"age <> 30", []int64{2, 3}}, // NULL age excluded
		{"age > 25 AND score IS NOT NULL", []int64{1, 3}},
		{"age IS NULL", []int64{5}},
		{"name LIKE '%a%'", []int64{1, 3, 4}},
		{"name NOT LIKE '%a%'", []int64{2, 5}},
		{"age BETWEEN 25 AND 30", []int64{1, 2, 4}},
		{"id IN (1, 3, 5)", []int64{1, 3, 5}},
		{"id NOT IN (1, 3, 5)", []int64{2, 4}},
		{"joined < date '2021-01-01'", []int64{1, 3, 5}},
		{"score > 80 OR age > 33", []int64{1, 2, 3, 5}},
		{"NOT age = 30", []int64{2, 3}},
	}
	for _, c := range cases {
		rows := query(t, s, "SELECT id FROM people WHERE "+c.where+" ORDER BY id")
		var got []int64
		for _, r := range rows {
			got = append(got, r[0].I)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.ids) {
			t.Errorf("WHERE %s: got %v, want %v", c.where, got, c.ids)
		}
	}
}

func TestArithmeticProjection(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows := query(t, s, "SELECT id * 10 + 1, score / 2 FROM people WHERE id = 2")
	if len(rows) != 1 {
		t.Fatal("want 1 row")
	}
	if rows[0][0].I != 21 {
		t.Errorf("2*10+1 = %v", rows[0][0])
	}
	if rows[0][1].F != 45.5 {
		t.Errorf("91/2 = %v", rows[0][1])
	}
}

func TestOrderByAndLimit(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows := query(t, s, "SELECT name FROM people ORDER BY score DESC LIMIT 2")
	// NULL score sorts last in DESC? PostgreSQL: NULLS FIRST for DESC by
	// default; our executor places NULLs last for ASC and first for DESC.
	// eve (99.9) then bob (91.0) unless NULL first.
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	got := []string{rows[0][0].S, rows[1][0].S}
	if got[0] != "dave" && got[0] != "eve" {
		t.Errorf("unexpected first row %v", got)
	}
	// Ascending with NULL last.
	rows = query(t, s, "SELECT name FROM people ORDER BY score")
	if rows[len(rows)-1][0].S != "dave" {
		t.Errorf("NULL should sort last ascending, got %v", rows)
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows, cols, err := s.QueryRows("SELECT name FROM people ORDER BY age DESC, id")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 {
		t.Errorf("hidden column leaked: %v", cols)
	}
	// DESC sorts NULLS FIRST (PostgreSQL default): eve (NULL age), then
	// carol (35).
	if rows[0][0].S != "eve" || rows[1][0].S != "carol" {
		t.Errorf("order wrong: %v", rows)
	}
}

func TestAggregatesGlobal(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows := query(t, s, "SELECT count(*), count(age), sum(age), avg(age), min(age), max(age) FROM people")
	if len(rows) != 1 {
		t.Fatal("want 1 row")
	}
	r := rows[0]
	if r[0].I != 5 {
		t.Errorf("count(*) = %v", r[0])
	}
	if r[1].I != 4 {
		t.Errorf("count(age) = %v (NULL must not count)", r[1])
	}
	if r[2].I != 120 {
		t.Errorf("sum(age) = %v", r[2])
	}
	if r[3].F != 30 {
		t.Errorf("avg(age) = %v", r[3])
	}
	if r[4].I != 25 || r[5].I != 35 {
		t.Errorf("min/max = %v %v", r[4], r[5])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows := query(t, s, "SELECT count(*), sum(age), min(score) FROM people WHERE id > 100")
	if len(rows) != 1 {
		t.Fatal("global aggregate over empty input must yield one row")
	}
	if rows[0][0].I != 0 {
		t.Errorf("count = %v", rows[0][0])
	}
	if !rows[0][1].IsNull() || !rows[0][2].IsNull() {
		t.Errorf("sum/min over empty should be NULL: %v", rows[0])
	}
}

func TestGroupBy(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows := query(t, s, "SELECT age, count(*) FROM people GROUP BY age ORDER BY 2 DESC, 1")
	// Groups: 30 -> 2, 25 -> 1, 35 -> 1, NULL -> 1.
	if len(rows) != 4 {
		t.Fatalf("got %d groups: %v", len(rows), rows)
	}
	if rows[0][0].I != 30 || rows[0][1].I != 2 {
		t.Errorf("top group = %v", rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows := query(t, s, "SELECT age, count(*) FROM people GROUP BY age HAVING count(*) > 1")
	if len(rows) != 1 || rows[0][0].I != 30 {
		t.Errorf("having result = %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	rows := query(t, s, "SELECT DISTINCT age FROM people ORDER BY age")
	if len(rows) != 4 {
		t.Errorf("distinct ages = %v", rows)
	}
}

func setupJoinTables(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE dept (d_id INT, d_name TEXT)`)
	mustExec(t, s, `CREATE TABLE emp (e_id INT, e_dept INT, e_name TEXT, e_sal FLOAT)`)
	mustExec(t, s, `INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')`)
	mustExec(t, s, `INSERT INTO emp VALUES
		(10, 1, 'ann', 100.0), (11, 1, 'ben', 120.0),
		(12, 2, 'cat', 90.0), (13, NULL, 'dan', 80.0)`)
	mustExec(t, s, "ANALYZE")
}

func TestInnerJoin(t *testing.T) {
	s := newSession(t)
	setupJoinTables(t, s)
	for _, src := range []string{
		"SELECT e_name, d_name FROM emp, dept WHERE e_dept = d_id ORDER BY e_id",
		"SELECT e_name, d_name FROM emp JOIN dept ON e_dept = d_id ORDER BY e_id",
	} {
		rows := query(t, s, src)
		if len(rows) != 3 {
			t.Fatalf("%s: got %d rows", src, len(rows))
		}
		if rows[0][0].S != "ann" || rows[0][1].S != "eng" {
			t.Errorf("%s: row0 = %v", src, rows[0])
		}
		// dan (NULL dept) must not appear.
		for _, r := range rows {
			if r[0].S == "dan" {
				t.Errorf("%s: NULL join key must not match", src)
			}
		}
	}
}

func TestLeftJoin(t *testing.T) {
	s := newSession(t)
	setupJoinTables(t, s)
	rows := query(t, s, `SELECT e_name, d_name FROM emp LEFT JOIN dept ON e_dept = d_id ORDER BY e_id`)
	if len(rows) != 4 {
		t.Fatalf("left join rows = %d, want 4", len(rows))
	}
	last := rows[3]
	if last[0].S != "dan" || !last[1].IsNull() {
		t.Errorf("unmatched row should null-extend: %v", last)
	}
}

func TestLeftJoinWithOnFilter(t *testing.T) {
	s := newSession(t)
	setupJoinTables(t, s)
	// The ON filter restricts matches but keeps all left rows.
	rows := query(t, s, `SELECT d_name, e_name FROM dept
		LEFT JOIN emp ON d_id = e_dept AND e_sal > 100 ORDER BY d_id, e_id`)
	// eng matches ben (120); sales has no emp > 100; empty has none.
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].S != "eng" || rows[0][1].S != "ben" {
		t.Errorf("row0 = %v", rows[0])
	}
	if !rows[1][1].IsNull() || !rows[2][1].IsNull() {
		t.Errorf("unmatched depts should null-extend: %v", rows)
	}
}

func TestLeftJoinAggregation(t *testing.T) {
	s := newSession(t)
	setupJoinTables(t, s)
	rows := query(t, s, `SELECT d_name, count(e_id) FROM dept
		LEFT JOIN emp ON d_id = e_dept GROUP BY d_name ORDER BY d_name`)
	want := map[string]int64{"empty": 0, "eng": 2, "sales": 1}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if want[r[0].S] != r[1].I {
			t.Errorf("dept %s count = %d, want %d", r[0].S, r[1].I, want[r[0].S])
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	s := newSession(t)
	setupJoinTables(t, s)
	mustExec(t, s, `CREATE TABLE bonus (b_emp INT, b_amt FLOAT)`)
	mustExec(t, s, `INSERT INTO bonus VALUES (10, 5.0), (11, 6.0), (10, 7.0)`)
	mustExec(t, s, "ANALYZE bonus")
	rows := query(t, s, `SELECT e_name, d_name, b_amt FROM emp, dept, bonus
		WHERE e_dept = d_id AND b_emp = e_id ORDER BY e_id, b_amt`)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].S != "ann" || rows[0][2].F != 5 {
		t.Errorf("row0 = %v", rows[0])
	}
}

func TestJoinWithIndex(t *testing.T) {
	s := newSession(t)
	setupJoinTables(t, s)
	mustExec(t, s, "CREATE INDEX emp_dept ON emp (e_dept)")
	mustExec(t, s, "ANALYZE")
	rows := query(t, s, `SELECT e_name FROM emp, dept WHERE e_dept = d_id AND d_name = 'eng' ORDER BY e_id`)
	if len(rows) != 2 || rows[0][0].S != "ann" {
		t.Errorf("indexed join = %v", rows)
	}
}

func TestIndexScanCorrectness(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE nums (n INT, label TEXT)")
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'v%d')", i, i))
	}
	mustExec(t, s, "INSERT INTO nums VALUES "+strings.Join(vals, ", "))
	mustExec(t, s, "CREATE INDEX nums_n ON nums (n)")
	mustExec(t, s, "ANALYZE nums")

	// Narrow range should use the index (verify via explain) and return
	// exactly the right rows.
	expl, err := s.Explain("SELECT label FROM nums WHERE n BETWEEN 100 AND 110")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expl, "IndexScan") {
		t.Errorf("expected index scan:\n%s", expl)
	}
	rows := query(t, s, "SELECT n FROM nums WHERE n BETWEEN 100 AND 110 ORDER BY n")
	if len(rows) != 11 || rows[0][0].I != 100 || rows[10][0].I != 110 {
		t.Errorf("index range scan wrong: %d rows", len(rows))
	}
	// Same result as a seq scan predicate.
	rows2 := query(t, s, "SELECT n FROM nums WHERE n >= 100 AND n <= 110 AND label LIKE 'v%' ORDER BY n")
	if len(rows2) != 11 {
		t.Errorf("residual filter broke scan: %d rows", len(rows2))
	}
}

func TestInsertMaintainsIndex(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (a INT)")
	mustExec(t, s, "CREATE INDEX t_a ON t (a)")
	mustExec(t, s, "INSERT INTO t VALUES (5), (6), (7)")
	mustExec(t, s, "ANALYZE t")
	rows := query(t, s, "SELECT a FROM t WHERE a = 6")
	if len(rows) != 1 || rows[0][0].I != 6 {
		t.Errorf("post-index insert lookup = %v", rows)
	}
}

func TestExplainAndWhatIf(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	out, err := s.Explain("EXPLAIN SELECT id FROM people WHERE age > 20")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SeqScan") {
		t.Errorf("explain output:\n%s", out)
	}
	// What-if: same query, two parameter vectors.
	pFast := s.Params
	pFast.TimePerSeqPage = 0.0001
	pSlow := s.Params
	pSlow.TimePerSeqPage = 0.001
	fast, err := s.Plan("SELECT id FROM people WHERE age > 20", pFast)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := s.Plan("SELECT id FROM people WHERE age > 20", pSlow)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slow.EstimatedSeconds()/fast.EstimatedSeconds()-10) > 1e-9 {
		t.Errorf("estimates should scale with TimePerSeqPage: %g vs %g", fast.EstimatedSeconds(), slow.EstimatedSeconds())
	}
}

func TestRunWorkloadMeasuresTime(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	elapsed, err := s.RunWorkload([]string{
		"SELECT count(*) FROM people",
		"SELECT name FROM people WHERE age > 20",
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Error("workload should consume simulated time")
	}
}

func TestErrorPaths(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("SELECT 1 FROM x"); err == nil {
		t.Error("Exec of SELECT should fail")
	}
	if _, err := s.Query("CREATE TABLE t (a INT)"); err == nil {
		t.Error("Query of DDL should fail")
	}
	mustExec(t, s, "CREATE TABLE t (a INT, b TEXT)")
	if _, err := s.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := s.Exec("INSERT INTO t VALUES ('x', 'y')"); err == nil {
		t.Error("type mismatch should fail")
	}
	if _, err := s.Exec("INSERT INTO missing VALUES (1)"); err == nil {
		t.Error("unknown table should fail")
	}
	if err := s.Analyze("missing"); err == nil {
		t.Error("analyze unknown table should fail")
	}
	if _, err := NewSession(NewDatabase(), s.VM, Config{BufferFrac: 0, WorkMemFrac: 0.1}); err == nil {
		t.Error("bad config should fail")
	}
}

func TestIntFloatJoinKeysMatch(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE a (x INT)")
	mustExec(t, s, "CREATE TABLE b (y FLOAT)")
	mustExec(t, s, "INSERT INTO a VALUES (1), (2), (3)")
	mustExec(t, s, "INSERT INTO b VALUES (2.0), (3.5)")
	rows := query(t, s, "SELECT x FROM a, b WHERE x = y")
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Errorf("int=float join: %v", rows)
	}
}

func TestNullNeverJoins(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE a (x INT)")
	mustExec(t, s, "CREATE TABLE b (y INT)")
	mustExec(t, s, "INSERT INTO a VALUES (NULL), (1)")
	mustExec(t, s, "INSERT INTO b VALUES (NULL), (1)")
	rows := query(t, s, "SELECT x FROM a, b WHERE x = y")
	if len(rows) != 1 {
		t.Errorf("NULL keys must not join: %v", rows)
	}
}

func TestDateArithmeticAndComparison(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE ev (d DATE)")
	mustExec(t, s, "INSERT INTO ev VALUES (date '1995-06-15'), (date '1995-06-20')")
	rows := query(t, s, "SELECT d FROM ev WHERE d >= date '1995-06-16'")
	if len(rows) != 1 || rows[0][0].String() != "1995-06-20" {
		t.Errorf("date filter = %v", rows)
	}
}

func TestExecutionConsumesSimulatedResources(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE big (a INT, pad TEXT)")
	var vals []string
	for i := 0; i < 5000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, '%s')", i, strings.Repeat("p", 100)))
	}
	mustExec(t, s, "INSERT INTO big VALUES "+strings.Join(vals, ", "))
	mustExec(t, s, "ANALYZE big")

	start := s.VM.Snapshot()
	query(t, s, "SELECT count(*) FROM big WHERE pad LIKE '%q%'")
	used := s.VM.Since(start)
	if used.CPUOps <= 0 {
		t.Error("query should consume CPU")
	}
	if used.CPUSeconds <= 0 {
		t.Error("query should consume CPU time")
	}
}

func TestSortSpillChargesIO(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE big (a INT, pad TEXT)")
	var vals []string
	for i := 0; i < 3000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, '%s')", (i*7919)%3000, strings.Repeat("p", 50)))
	}
	mustExec(t, s, "INSERT INTO big VALUES "+strings.Join(vals, ", "))
	mustExec(t, s, "ANALYZE big")
	s.Params.WorkMemBytes = 8 << 10 // 8 KiB: force spill

	start := s.VM.Snapshot()
	rows := query(t, s, "SELECT a FROM big ORDER BY a")
	used := s.VM.Since(start)
	if used.Writes == 0 {
		t.Error("spilling sort should charge writes")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][0].I < rows[i-1][0].I {
			t.Fatal("sort order violated")
		}
	}
}

func TestResultColumnsNamed(t *testing.T) {
	s := newSession(t)
	setupPeople(t, s)
	_, cols, err := s.QueryRows("SELECT id AS ident, name, count(*) cnt FROM people GROUP BY id, name")
	if err != nil {
		t.Fatal(err)
	}
	if cols[0] != "ident" || cols[1] != "name" || cols[2] != "cnt" {
		t.Errorf("columns = %v", cols)
	}
}

func TestValueCoercionOnInsert(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE c (f FLOAT, d DATE)")
	mustExec(t, s, "INSERT INTO c VALUES (5, 1000)") // int into float and date
	rows := query(t, s, "SELECT f, d FROM c")
	if rows[0][0].Kind != types.KindFloat || rows[0][0].F != 5 {
		t.Errorf("int->float coercion: %v", rows[0][0])
	}
	if rows[0][1].Kind != types.KindDate {
		t.Errorf("int->date coercion: %v", rows[0][1])
	}
}

// TestConcurrentSessionsShareDatabase runs several sessions in parallel
// goroutines against one shared (checkpointed) database, each in its own
// VM with its own buffer pool — the consolidation deployment model. The
// disk is the only shared structure and must be race-free.
func TestConcurrentSessionsShareDatabase(t *testing.T) {
	src := newSession(t)
	setupPeople(t, src)
	mustExec(t, src, "CREATE INDEX people_idx ON people (id)")
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			m := vm.MustMachine(vm.DefaultMachineConfig())
			v, err := m.NewVM(fmt.Sprintf("w%d", w), vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
			if err != nil {
				errs <- err
				return
			}
			s, err := NewSession(src.DB, v, DefaultConfig())
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 50; i++ {
				rows, _, err := s.QueryRows("SELECT count(*) FROM people WHERE id <= 5")
				if err != nil {
					errs <- err
					return
				}
				if rows[0][0].I != 5 {
					errs <- fmt.Errorf("worker %d: count = %d", w, rows[0][0].I)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
