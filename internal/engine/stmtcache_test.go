package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dbvirt/internal/memo"
	"dbvirt/internal/obs"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/vm"
	"dbvirt/internal/wal"
)

// TestRunStatementRoutesByStatement: RunStatement sends a statement to the
// SELECT pipeline or to Exec by its parsed type, so a leading comment,
// whitespace or lower case does not turn a SELECT into an error.
func TestRunStatementRoutesByStatement(t *testing.T) {
	s := newSession(t)
	for _, src := range []string{
		"CREATE TABLE t (a INT, b TEXT)",
		"-- load\nINSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')",
	} {
		if _, err := s.RunStatement(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	for src, want := range map[string]int64{
		"-- note\nSELECT a FROM t":                             3,
		"  select a FROM t WHERE a >= 2":                       2,
		"SELECT a FROM t -- trailing\nLIMIT 1":                 1,
		"\n\t-- one\n-- two\nUPDATE t SET b = 'w' WHERE a = 1": 1,
	} {
		if n, err := s.RunStatement(src); err != nil || n != want {
			t.Errorf("%q: %d rows, %v; want %d", src, n, err, want)
		}
	}
	if _, err := s.RunStatement("EXPLAIN SELECT a FROM t"); err == nil || !strings.Contains(err.Error(), "use Query") {
		t.Errorf("EXPLAIN through RunStatement: %v, want the Exec error", err)
	}
}

// cacheTwin is one database of the statement-cache differential: the same
// schema and data, its own machine, write-ahead log and session.
type cacheTwin struct {
	name  string
	s     *Session
	dev   *wal.MemDevice
	fresh bool // empty the cache before every statement: every one misses
	hits  int64
}

func newCacheTwin(t *testing.T, name string) *cacheTwin {
	t.Helper()
	tw := &cacheTwin{name: name, dev: wal.NewMemDevice()}
	db := NewDatabase()
	if err := db.EnableLogging(tw.dev, 1); err != nil {
		t.Fatal(err)
	}
	v, err := vm.MustMachine(vm.DefaultMachineConfig()).NewVM(name, vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if tw.s, err = NewSession(db, v, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	mustExec(t, tw.s, "CREATE TABLE account (a_id INT, a_bal FLOAT)")
	mustExec(t, tw.s, "CREATE TABLE p (a INT, b INT, c FLOAT, d TEXT)")
	g := &propGen{rng: rand.New(rand.NewSource(5)), keys: 24}
	var acct, rows []string
	for k := 1; k <= 2000; k++ {
		acct = append(acct, fmt.Sprintf("(%d, %d.25)", k, k%977))
	}
	for i := 0; i < 400; i++ {
		rows = append(rows, tupleSQL(g.row()))
	}
	mustExec(t, tw.s, "INSERT INTO account VALUES "+strings.Join(acct, ", "))
	mustExec(t, tw.s, "INSERT INTO p VALUES "+strings.Join(rows, ", "))
	for _, ddl := range []string{"CREATE INDEX account_pk ON account (a_id)", "CREATE INDEX p_a ON p (a)", "ANALYZE"} {
		mustExec(t, tw.s, ddl)
	}
	return tw
}

// run sends one statement through RunStatement and reports its outcome.
func (tw *cacheTwin) run(src string) string {
	if tw.fresh {
		tw.s.stmts = memo.Gen[string, *stmtTemplate]{}
	}
	before := mStmtHit.Value()
	n, err := tw.s.RunStatement(src)
	tw.hits += mStmtHit.Value() - before
	return fmt.Sprintf("%d rows, error %v", n, err)
}

// plan returns the plan RunStatement executes for a SELECT, UPDATE or
// DELETE: the statement's template, as the cache hands it over, planned
// through the session's planning helper from the template's prepared
// record. Asked right after RunStatement, under the same values and
// Params, it takes the path that statement took: the recorded tree, or
// the same replay of it.
func (tw *cacheTwin) plan(src string) ([]optimizer.NodeCost, error) {
	st, err := tw.s.statement(src)
	if err != nil {
		return nil, err
	}
	var pl *optimizer.Plan
	switch x := st.tpl.Stmt.(type) {
	case *sql.SelectStmt:
		pl, err = tw.s.planQuery(nil, st.pq)
	case *sql.UpdateStmt, *sql.DeleteStmt:
		pl, err = tw.s.planVictimScan(x, st.pq)
	default:
		return nil, fmt.Errorf("%q has no plan", src)
	}
	if err != nil {
		return nil, err
	}
	return pl.CostBreakdown(), nil
}

// freshPlan parses, binds and optimizes src from scratch, as plan's
// reference.
func freshPlan(s *Session, src string) ([]optimizer.NodeCost, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	var pl *optimizer.Plan
	switch stmt.(type) {
	case *sql.UpdateStmt, *sql.DeleteStmt:
		pl, err = s.planVictimScan(stmt, nil)
	default:
		pl, err = s.Plan(src, s.Params)
	}
	if err != nil {
		return nil, err
	}
	return pl.CostBreakdown(), nil
}

// samePlan reports where two cost breakdowns differ, node for node, with
// rows and costs compared exactly.
func samePlan(got, want []optimizer.NodeCost) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d nodes, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || g.Depth != w.Depth || !reflect.DeepEqual(g.Extra, w.Extra) || g.Rows != w.Rows || g.Cost != w.Cost {
			return fmt.Errorf("node %d: %s %v rows %v cost %+v, want %s %v rows %v cost %+v",
				i, g.Name, g.Extra, g.Rows, g.Cost, w.Name, w.Extra, w.Rows, w.Cost)
		}
	}
	return nil
}

// cacheParams are the cost vectors the differential's middle phase cycles
// every twin through: random I/O cheap and dear, CPU dear, a cache too
// small for either table.
func cacheParams(base optimizer.Params) []optimizer.Params {
	var out []optimizer.Params
	for _, f := range []func(p *optimizer.Params){
		func(p *optimizer.Params) { p.RandomPageCost = 1.05 },
		func(p *optimizer.Params) { p.RandomPageCost = 40 },
		func(p *optimizer.Params) { p.CPUTupleCost *= 8; p.CPUIndexTupleCost *= 8; p.CPUOperatorCost *= 8 },
		func(p *optimizer.Params) { p.EffectiveCacheSizePages = 2 },
	} {
		p := base
		f(&p)
		out = append(out, p)
	}
	return append(out, base)
}

// cacheStream draws the differential's statements: the oltp ledger's five
// shapes over account, the DML property test's random UPDATEs and DELETEs
// (with SELECTs of their predicates and INSERTs) over p, transactions
// around some of them, and literals whose value or kind the cache must not
// confuse.
func cacheStream(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	g := &propGen{rng: rng, keys: 24}
	var keys []int64
	for k := int64(1); k <= 2000; k++ {
		keys = append(keys, k)
	}
	pick := func() int64 { return keys[rng.Intn(len(keys))] }
	next := int64(2001)
	var out []string
	for len(out) < n {
		switch r := rng.Intn(24); {
		case r < 6:
			out = append(out, fmt.Sprintf("SELECT a_bal FROM account WHERE a_id = %d", pick()))
		case r < 7:
			out = append(out, fmt.Sprintf("SELECT a_id, a_bal FROM account WHERE a_id >= %d LIMIT %d", 1+rng.Intn(1500), []int{10, 3}[rng.Intn(2)]))
		case r < 9:
			out = append(out, fmt.Sprintf("INSERT INTO account VALUES (%d, %.2f)", next, float64(rng.Intn(100000))/100))
			keys = append(keys, next)
			next++
		case r < 11:
			out = append(out, fmt.Sprintf("UPDATE account SET a_bal = a_bal + %d.0 WHERE a_id = %d", 1+rng.Intn(3), pick()))
		case r < 12:
			out = append(out, fmt.Sprintf("DELETE FROM account WHERE a_id = %d", pick()))
		case r < 16:
			where := ""
			if w := g.pred().SQL(); w != "" {
				where = " WHERE " + w
			}
			switch rng.Intn(3) {
			case 0:
				out = append(out, "DELETE FROM p"+where)
			case 1:
				var sets []string
				for _, st := range g.sets() {
					sets = append(sets, st.sql)
				}
				out = append(out, "UPDATE p SET "+strings.Join(sets, ", ")+where)
			default:
				out = append(out, "SELECT * FROM p"+where)
			}
		case r < 18:
			out = append(out, "INSERT INTO p VALUES "+tupleSQL(g.row()))
		case r < 19:
			out = append(out, "BEGIN", fmt.Sprintf("UPDATE account SET a_bal = 0.5 WHERE a_id = %d", pick()),
				[]string{"COMMIT", "ROLLBACK"}[rng.Intn(2)])
		default:
			out = append(out, []string{
				"SELECT a_bal FROM account WHERE a_id = 2.5",
				"SELECT a_bal FROM account WHERE a_id = '5'",
				"SELECT a_bal FROM account WHERE a_id = 99999999999999999999",
				"SELECT a_bal FROM account WHERE a_id = -7",
				"SELECT count(*) FROM p WHERE d = DATE 'bad'",
				"-- comment\nSELECT count(*), sum(c + 1) FROM p WHERE b BETWEEN 3 AND 9",
				"SELECT count(*), sum(c + 2) FROM p WHERE b BETWEEN 3 AND 9",
			}[rng.Intn(7)])
		}
	}
	return out
}

// TestStatementCacheMatchesFresh is the evicted ≡ cached ≡ uncached
// property of the session statement cache: three identical databases run
// the same stream — one cache at its shipped capacity, one at capacity 1,
// one emptied before every statement — and every statement's outcome, the
// VM's simulated usage, the buffer pool's counters, the log's bytes, the
// plan every SELECT, UPDATE and DELETE executed and the final tables
// agree. The executed plan must equal a fresh parse, bind and Optimize
// node for node, rows and costs exactly. In the stream's middle third
// every twin's Params change every few statements, so re-costs along the
// literals and along P(R) interleave.
func TestStatementCacheMatchesFresh(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 400
	}
	twins := []*cacheTwin{newCacheTwin(t, "cached"), newCacheTwin(t, "capacity1"), newCacheTwin(t, "fresh")}
	twins[1].s.stmts.Cap = 1
	twins[2].fresh = true
	evicted := mStmtEvict.Value()
	vectors := cacheParams(twins[0].s.Params)
	recostFast, recostFull := obs.Global.Counter("whatif.recost.fast"), obs.Global.Counter("whatif.recost.full")
	fast, full := recostFast.Value(), recostFull.Value()
	for i, src := range cacheStream(3, n) {
		if i >= n/3 && i < 2*n/3 && i%7 == 0 {
			for _, tw := range twins {
				tw.s.Params = vectors[(i/7)%len(vectors)]
			}
		}
		want := twins[2].run(src)
		for _, tw := range twins[:2] {
			if got := tw.run(src); got != want {
				t.Fatalf("statement %d %q: %s: %s, uncached: %s", i, src, tw.name, got, want)
			}
		}
		ref := twins[2]
		for _, tw := range twins[:2] {
			if a, b := tw.s.VM.Snapshot(), ref.s.VM.Snapshot(); a != b {
				t.Fatalf("after %q: %s VM %+v, uncached %+v", src, tw.name, a, b)
			}
			if a, b := tw.s.Pool.Stats(), ref.s.Pool.Stats(); a != b {
				t.Fatalf("after %q: %s pool %+v, uncached %+v", src, tw.name, a, b)
			}
			if a, b := tw.dev.Size(), ref.dev.Size(); a != b {
				t.Fatalf("after %q: %s log holds %d bytes, uncached %d", src, tw.name, a, b)
			}
		}
		if up := strings.ToUpper(src); strings.Contains(up, "SELECT") || strings.HasPrefix(up, "UPDATE") || strings.HasPrefix(up, "DELETE") {
			// The uncached database plans afresh; the cached ones hand
			// back the plan of the template they just ran.
			want, wantErr := freshPlan(ref.s, src)
			for _, tw := range twins[:2] {
				got, err := tw.plan(src)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("plan %q: %s: error %v, uncached %v", src, tw.name, err, wantErr)
				}
				if err := samePlan(got, want); err != nil {
					t.Fatalf("plan %q under %+v: %s: %v", src, tw.s.Params, tw.name, err)
				}
			}
		}
	}
	t.Logf("prepared plans: %d re-costed, %d enumerated", recostFast.Value()-fast, recostFull.Value()-full)
	if recostFast.Value() == fast {
		t.Error("no statement re-costed a prepared plan")
	}
	for _, table := range []string{"account", "p"} {
		want := tableRows(t, twins[2].s, table)
		for _, tw := range twins[:2] {
			if got := tableRows(t, tw.s, table); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: final %s differs from the uncached database's", tw.name, table)
			}
		}
	}
	if twins[2].hits != 0 {
		t.Errorf("the emptied cache hit %d times", twins[2].hits)
	}
	if twins[0].hits < int64(n)/2 {
		t.Errorf("the shipped cache hit %d of %d statements", twins[0].hits, n)
	}
	if mStmtEvict.Value() == evicted {
		t.Error("capacity 1 evicted nothing")
	}
}

// tableRows returns a table's rows as sorted text.
func tableRows(t *testing.T, s *Session, table string) []string {
	t.Helper()
	var out []string
	for _, r := range query(t, s, "SELECT * FROM "+table) {
		out = append(out, tupleSQL(storage.Tuple(r)))
	}
	return sortedRows(out)
}

// TestStatementCacheInvalidation: a cached shape is re-bound when the
// catalog changes — an UPDATE shape's victim scan turns from a sequential
// scan into an index scan after CREATE INDEX and ANALYZE — while DML
// between two runs of a shape leaves the catalog version and the template
// alone; and a parameter whose value or kind differs from the template's
// gives the uncached path's result or error.
func TestStatementCacheInvalidation(t *testing.T) {
	s := setupItemsN(t, 3000)
	mustExec(t, s, "CREATE TABLE acc (a_id INT, qty INT)")
	var vals []string
	for i := 1; i <= 3000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%10))
	}
	mustExec(t, s, "INSERT INTO acc VALUES "+strings.Join(vals, ", "))
	mustExec(t, s, "ANALYZE acc")

	update := func(k int) (seq, ix, hits int64) {
		t.Helper()
		s0, i0, h0 := mVictimScanSeq.Value(), mVictimScanIndex.Value(), mStmtHit.Value()
		if n, err := s.RunStatement(fmt.Sprintf("UPDATE acc SET qty = qty + 1 WHERE a_id = %d", k)); err != nil || n != 1 {
			t.Fatalf("update %d: %d rows, %v", k, n, err)
		}
		return mVictimScanSeq.Value() - s0, mVictimScanIndex.Value() - i0, mStmtHit.Value() - h0
	}
	if seq, _, _ := update(5); seq != 1 {
		t.Fatal("the first UPDATE did not scan sequentially")
	}
	version := s.DB.Catalog.Version()
	for _, dml := range []string{"INSERT INTO acc VALUES (3001, 1)", "DELETE FROM acc WHERE a_id = 3001", "UPDATE items SET qty = 0 WHERE id = 3"} {
		if _, err := s.RunStatement(dml); err != nil {
			t.Fatal(err)
		}
	}
	if seq, _, hits := update(6); seq != 1 || hits != 1 {
		t.Errorf("after DML the shape ran %d sequential scans and %d cache hits, want 1 and 1", seq, hits)
	}
	if got := s.DB.Catalog.Version(); got != version {
		t.Errorf("DML moved the catalog version %d → %d", version, got)
	}
	mustExec(t, s, "CREATE INDEX acc_pk ON acc (a_id)")
	mustExec(t, s, "ANALYZE acc")
	if _, ix, hits := update(7); ix != 1 || hits != 1 {
		t.Errorf("after CREATE INDEX and ANALYZE the cached shape ran %d index scans (%d hits), want 1 (1)", ix, hits)
	}

	// The same shape key with values of other kinds or out of range:
	// every outcome is the uncached path's, on a hit and on a miss.
	fresh := setupItemsN(t, 3000)
	for _, sess := range []*Session{s, fresh} {
		mustExec(t, sess, "CREATE TABLE ev (id INT, d DATE)")
		mustExec(t, sess, "INSERT INTO ev VALUES (1, DATE '2020-01-01'), (2, DATE '2020-02-29'), (3, NULL)")
	}
	for _, src := range []string{
		"SELECT qty FROM items WHERE id = 5",
		"SELECT qty FROM items WHERE id = 2.5",
		"SELECT qty FROM items WHERE id = '5'",
		"SELECT qty FROM items WHERE id = 99999999999999999999",
		"SELECT qty FROM items WHERE id = 7",
		"SELECT id FROM ev WHERE d = DATE '2020-01-01'",
		"SELECT id FROM ev WHERE d = DATE 'bad'",
		"SELECT id FROM ev WHERE d = DATE '2020-02-30'",
		"SELECT id FROM ev WHERE d = DATE '2020-02-29'",
		"SELECT id FROM ev WHERE d >= '2020-01-15'",
		"SELECT id FROM ev WHERE d >= 'soon'",
	} {
		got, gotErr := s.RunStatement(src)
		fresh.stmts = memo.Gen[string, *stmtTemplate]{}
		want, wantErr := fresh.RunStatement(src)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: cached %d rows, %v; uncached %d rows, %v", src, got, gotErr, want, wantErr)
		}
	}
}

// TestStatementCacheSessionsConcurrent runs eight sessions of one database
// through RunStatement at once, on shared shapes, as calibration does:
// each session's cache is its own, and every result is the serial one.
func TestStatementCacheSessionsConcurrent(t *testing.T) {
	s := setupItemsN(t, 500)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stmts := func(w int) []string {
		var out []string
		for i := 0; i < 60; i++ {
			k := (w*37 + i*11) % 520
			out = append(out,
				fmt.Sprintf("SELECT qty FROM items WHERE id = %d", k),
				fmt.Sprintf("SELECT count(*) FROM items WHERE id >= %d AND qty < %d", k, i%10),
				fmt.Sprintf("SELECT name FROM items WHERE id BETWEEN %d AND %d LIMIT 3", k, k+i))
		}
		return out
	}
	want := make([][]int64, 8)
	for w := range want {
		c := coldSession(t, s)
		for _, src := range stmts(w) {
			n, err := c.RunStatement(src)
			if err != nil {
				t.Fatal(err)
			}
			want[w] = append(want[w], n)
		}
	}
	sessions := make([]*Session, 8)
	for w := range sessions {
		sessions[w] = coldSession(t, s)
	}
	var wg sync.WaitGroup
	for w := range sessions {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, src := range stmts(w) {
				n, err := sessions[w].RunStatement(src)
				if err != nil || n != want[w][i] {
					t.Errorf("session %d: %q: %d rows, %v; serially %d", w, src, n, err, want[w][i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
