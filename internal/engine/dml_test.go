package engine

import (
	"fmt"
	"strings"
	"testing"

	"dbvirt/internal/executor"
	"dbvirt/internal/sql"
	"dbvirt/internal/vm"
)

func setupDML(t *testing.T) *Session { return setupItemsN(t, 100) }

// setupItemsN loads items with n rows (ids 1..n), an index on id, none on
// qty, and fresh statistics.
func setupItemsN(t *testing.T, n int) *Session {
	t.Helper()
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE items (id INT, qty INT, name TEXT)")
	var vals []string
	for i := 1; i <= n; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, 'item%d')", i, i%10, i))
	}
	mustExec(t, s, "INSERT INTO items VALUES "+strings.Join(vals, ", "))
	mustExec(t, s, "CREATE INDEX items_id ON items (id)")
	mustExec(t, s, "ANALYZE items")
	return s
}

func TestDeleteWithPredicate(t *testing.T) {
	s := setupDML(t)
	n, err := s.Exec("DELETE FROM items WHERE qty = 3")
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("deleted %d rows, want 10", n)
	}
	rows := query(t, s, "SELECT count(*) FROM items")
	if rows[0][0].I != 90 {
		t.Errorf("remaining = %v", rows[0][0])
	}
	if got := query(t, s, "SELECT count(*) FROM items WHERE qty = 3"); got[0][0].I != 0 {
		t.Error("deleted rows still visible")
	}
	// Index entries gone too: point lookups of deleted ids return nothing.
	if got := query(t, s, "SELECT id FROM items WHERE id = 3"); len(got) != 0 {
		t.Errorf("deleted id still indexed: %v", got)
	}
	// Surviving rows still indexed.
	if got := query(t, s, "SELECT id FROM items WHERE id = 4"); len(got) != 1 {
		t.Errorf("surviving id lost: %v", got)
	}
}

func TestDeleteAll(t *testing.T) {
	s := setupDML(t)
	n, err := s.Exec("DELETE FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("deleted %d, want 100", n)
	}
	if got := query(t, s, "SELECT count(*) FROM items"); got[0][0].I != 0 {
		t.Error("table should be empty")
	}
}

func TestUpdateWithPredicate(t *testing.T) {
	s := setupDML(t)
	n, err := s.Exec("UPDATE items SET qty = qty + 100, name = 'bumped' WHERE id <= 5")
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("updated %d rows, want 5", n)
	}
	rows := query(t, s, "SELECT id, qty, name FROM items WHERE id <= 5 ORDER BY id")
	for i, r := range rows {
		wantQty := int64(i+1)%10 + 100
		if r[1].I != wantQty || r[2].S != "bumped" {
			t.Errorf("row %v: qty=%v name=%v, want %d/bumped", r[0], r[1], r[2], wantQty)
		}
	}
	// Unmatched rows untouched.
	rows = query(t, s, "SELECT name FROM items WHERE id = 50")
	if rows[0][0].S != "item50" {
		t.Errorf("unmatched row modified: %v", rows[0])
	}
	// Count preserved.
	if got := query(t, s, "SELECT count(*) FROM items"); got[0][0].I != 100 {
		t.Errorf("row count changed: %v", got[0][0])
	}
}

func TestUpdateIndexedColumn(t *testing.T) {
	s := setupDML(t)
	if _, err := s.Exec("UPDATE items SET id = 1000 WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	if got := query(t, s, "SELECT qty FROM items WHERE id = 7"); len(got) != 0 {
		t.Error("old key still indexed")
	}
	got := query(t, s, "SELECT qty, name FROM items WHERE id = 1000")
	if len(got) != 1 || got[0][1].S != "item7" {
		t.Errorf("new key lookup = %v", got)
	}
}

func TestUpdateToNull(t *testing.T) {
	s := setupDML(t)
	if _, err := s.Exec("UPDATE items SET name = NULL WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	got := query(t, s, "SELECT name FROM items WHERE id = 1")
	if len(got) != 1 || !got[0][0].IsNull() {
		t.Errorf("NULL assignment failed: %v", got)
	}
}

func TestDMLErrors(t *testing.T) {
	s := setupDML(t)
	cases := []string{
		"DELETE FROM missing",
		"UPDATE missing SET a = 1",
		"UPDATE items SET nope = 1",
		"UPDATE items SET qty = 'text'",
		"UPDATE items SET qty = 1, qty = 2",
		"DELETE FROM items WHERE nope = 1",
		"UPDATE items SET qty = 1 WHERE qty",
	}
	for _, q := range cases {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

// coldSession opens a second session on s's database with an empty buffer
// pool, so page reads are charged rather than absorbed by a warm cache.
func coldSession(t *testing.T, s *Session) *Session {
	t.Helper()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v, err := vm.MustMachine(vm.DefaultMachineConfig()).NewVM("cold", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSession(s.DB, v, s.Config)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// victimScanUsage runs only the victim scan of a DELETE or UPDATE statement
// on a cold session and returns what it charged and how many rows it found.
func victimScanUsage(t *testing.T, s *Session, src string) (vm.Usage, int) {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := coldSession(t, s)
	pl, err := c.planVictimScan(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := c.VM.Snapshot()
	victims, err := c.collectVictims(pl)
	if err != nil {
		t.Fatal(err)
	}
	return c.VM.Since(start), len(victims)
}

// selectUsage runs a SELECT on a cold session and returns what it charged.
func selectUsage(t *testing.T, s *Session, src string) (vm.Usage, int) {
	t.Helper()
	c := coldSession(t, s)
	start := c.VM.Snapshot()
	rows := query(t, c, src)
	return c.VM.Since(start), len(rows)
}

func TestDMLConsumesSimulatedResources(t *testing.T) {
	s := setupDML(t)
	start := s.VM.Snapshot()
	if _, err := s.Exec("UPDATE items SET qty = 0 WHERE qty > 5"); err != nil {
		t.Fatal(err)
	}
	if used := s.VM.Since(start); used.CPUOps <= 0 {
		t.Error("DML should consume simulated CPU")
	}

	// The victim scan of a DELETE or UPDATE charges exactly what the SELECT *
	// with the same WHERE charges: CPU operations and page reads, on an
	// indexed point predicate (index scan) and on an un-indexed one (one full
	// scan, every tuple charged).
	const n = 3000
	s = setupItemsN(t, n)
	for _, tc := range []struct {
		where   string
		rows    int
		indexed bool
	}{
		{"id = 1234", 1, true},
		{"id BETWEEN 100 AND 119 AND qty < 5", 10, true},
		{"qty = 3", n / 10, false},
		{"id = 2.5", 0, true},
	} {
		sel, selRows := selectUsage(t, s, "SELECT * FROM items WHERE "+tc.where)
		for _, dml := range []string{"DELETE FROM items WHERE ", "UPDATE items SET qty = qty + 1 WHERE "} {
			got, victims := victimScanUsage(t, s, dml+tc.where)
			if victims != tc.rows || selRows != tc.rows {
				t.Errorf("%s%s: %d victims, SELECT %d rows, want %d", dml, tc.where, victims, selRows, tc.rows)
			}
			if got.CPUOps != sel.CPUOps || got.SeqReads != sel.SeqReads || got.RandReads != sel.RandReads {
				t.Errorf("%s%s: victim scan charged %+v, SELECT * charged %+v", dml, tc.where, got, sel)
			}
			if tc.indexed && got.CPUOps >= n*executor.OpsPerTuple {
				t.Errorf("%s%s: indexed victim scan charged a full scan (%g ops)", dml, tc.where, got.CPUOps)
			}
			if !tc.indexed && got.CPUOps < n*executor.OpsPerTuple {
				t.Errorf("%s%s: un-indexed victim scan charged %g ops, less than one full scan", dml, tc.where, got.CPUOps)
			}
		}
	}

	// End to end, a point write's simulated CPU must not follow the table
	// size: ten times the rows, less than twice the charge.
	pointCPU := func(rows int, stmt string) float64 {
		s := setupItemsN(t, rows)
		start := s.VM.Snapshot()
		if n, err := s.Exec(stmt); err != nil || n != 1 {
			t.Fatalf("%s on %d rows: %d affected, %v", stmt, rows, n, err)
		}
		return s.VM.Since(start).CPUOps
	}
	for _, stmt := range []string{
		"UPDATE items SET qty = qty + 1 WHERE id = 77",
		"DELETE FROM items WHERE id = 77",
	} {
		small, large := pointCPU(1000, stmt), pointCPU(10000, stmt)
		if large >= 2*small {
			t.Errorf("%s: %g ops on 1000 rows, %g on 10000 — a point write must not scale with the table", stmt, small, large)
		}
	}
}

// TestEmptyKeyRangeTouchesNothing is the regression test for predicates no
// integer key can satisfy: the index range they produce must be empty, not
// open. Before the fix `a = 2.5` selected — and would have deleted — every
// row.
func TestEmptyKeyRangeTouchesNothing(t *testing.T) {
	const n = 2000
	s := setupItemsN(t, n)
	for _, where := range []string{
		"id = 2.5",
		"id > 1.5 AND id < 1.9",
		"id >= 10 AND id <= 5",
	} {
		if plan, err := s.Explain("DELETE FROM items WHERE " + where); err != nil || !strings.Contains(plan, "IndexScan") {
			t.Fatalf("%s: want an index victim scan, got %v:\n%s", where, err, plan)
		}
		if rows := query(t, s, "SELECT id FROM items WHERE "+where); len(rows) != 0 {
			t.Errorf("SELECT ... WHERE %s returned %d rows", where, len(rows))
		}
		for _, dml := range []string{"UPDATE items SET qty = -1 WHERE ", "DELETE FROM items WHERE "} {
			if got, err := s.Exec(dml + where); err != nil || got != 0 {
				t.Errorf("%s%s: %d rows affected, err %v", dml, where, got, err)
			}
		}
	}
	if got := query(t, s, "SELECT count(*) FROM items WHERE qty >= 0"); got[0][0].I != n {
		t.Errorf("%v of %d rows left untouched", got[0][0], n)
	}
}

// TestExplainDML checks that the access path of a write is readable from
// Explain and counted in the engine.dml.* metrics.
func TestExplainDML(t *testing.T) {
	s := setupItemsN(t, 2000)
	for _, tc := range []struct{ stmt, header, scan string }{
		{"UPDATE items SET qty = 0 WHERE id = 7", "Update on items\n", "IndexScan"},
		{"DELETE FROM items WHERE id = 7", "Delete on items\n", "IndexScan"},
		{"DELETE FROM items WHERE qty = 7", "Delete on items\n", "SeqScan"},
		{"DELETE FROM items", "Delete on items\n", "SeqScan"},
	} {
		out, err := s.Explain(tc.stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		if !strings.HasPrefix(out, tc.header) || !strings.Contains(out, "-> "+tc.scan) {
			t.Errorf("%s: want %q then a %s, got:\n%s", tc.stmt, tc.header, tc.scan, out)
		}
	}
	if got := query(t, s, "SELECT count(*) FROM items"); got[0][0].I != 2000 {
		t.Errorf("Explain executed a write: %v rows left", got[0][0])
	}

	ix, seq, vic := mVictimScanIndex.Value(), mVictimScanSeq.Value(), mVictims.Value()
	mustExec(t, s, "UPDATE items SET qty = 0 WHERE id = 8")
	mustExec(t, s, "DELETE FROM items WHERE qty = 7")
	if d := mVictimScanIndex.Value() - ix; d != 1 {
		t.Errorf("engine.dml.victim_scan.index moved by %d, want 1", d)
	}
	if d := mVictimScanSeq.Value() - seq; d != 1 {
		t.Errorf("engine.dml.victim_scan.seq moved by %d, want 1", d)
	}
	if d := mVictims.Value() - vic; d != 1+200 {
		t.Errorf("engine.dml.victims moved by %d, want 201", d)
	}
}

func TestDeleteThenReinsertAndScan(t *testing.T) {
	s := setupDML(t)
	mustExec(t, s, "DELETE FROM items WHERE id BETWEEN 10 AND 20")
	mustExec(t, s, "INSERT INTO items VALUES (10, 99, 'back')")
	rows := query(t, s, "SELECT qty FROM items WHERE id = 10")
	if len(rows) != 1 || rows[0][0].I != 99 {
		t.Errorf("reinsert lookup = %v", rows)
	}
	if got := query(t, s, "SELECT count(*) FROM items"); got[0][0].I != 90 {
		t.Errorf("count = %v, want 90", got[0][0])
	}
}

func TestExplainAnalyze(t *testing.T) {
	s := setupDML(t)
	out, err := s.Explain("EXPLAIN ANALYZE SELECT qty, count(*) FROM items WHERE id <= 50 GROUP BY qty")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"actual time=", "HashAggregate", "simulated", "seq"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain analyze missing %q:\n%s", want, out)
		}
	}
	// The scan's actual row count (50 of 100) must appear.
	if !strings.Contains(out, "rows=50 loops=1") {
		t.Errorf("expected actual rows=50 somewhere:\n%s", out)
	}
}

// TestExplainAnalyzeStatement checks that the SQL form EXPLAIN ANALYZE
// routes through Explain and carries per-operator actual rows and time.
func TestExplainAnalyzeStatement(t *testing.T) {
	s := setupDML(t)
	out, err := s.Explain("EXPLAIN ANALYZE SELECT qty FROM items WHERE id <= 50")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"actual time=", "rows=50 loops=1", "simulated"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	// Plain EXPLAIN must not execute: no actual annotations.
	plain, err := s.Explain("EXPLAIN SELECT qty FROM items WHERE id <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "actual") {
		t.Errorf("plain EXPLAIN must not execute:\n%s", plain)
	}
}

func TestExplainAnalyzeLimitShortCircuits(t *testing.T) {
	s := setupDML(t)
	out, err := s.Explain("EXPLAIN ANALYZE SELECT id FROM items LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "actual: 3 rows") {
		t.Errorf("limit output:\n%s", out)
	}
}
