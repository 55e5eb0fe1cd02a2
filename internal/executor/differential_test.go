// Differential tests for the batch executor: it must produce the same rows
// AND charge bit-identical simulated costs as the tuple-at-a-time reference
// executor (executor.RunReference) on every operator, across memory
// configurations that flip spill behavior, and across the optimizer's
// allocation lattice.
package executor_test

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dbvirt/internal/buffer"
	"dbvirt/internal/engine"
	"dbvirt/internal/executor"
	"dbvirt/internal/obs"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// runner executes a plan: executor.Run, or executor.RunReference.
type runner func(*optimizer.Plan, *executor.Context) (*executor.Result, error)

// diffSession builds a fresh database + VM + session. Each session of a
// differential pair gets its own machine so share validation never couples
// the pair.
func diffSession(t testing.TB, cfg engine.Config) *engine.Session {
	t.Helper()
	m := vm.MustMachine(vm.DefaultMachineConfig())
	v, err := m.NewVM("diff", vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(engine.NewDatabase(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// diffSetup loads the TPC-H-like workload plus a NULL-heavy side table
// into a session. Both sessions of a differential pair run exactly this.
func diffSetup(t testing.TB, s *engine.Session) {
	t.Helper()
	if err := workload.Build(s, workload.TinyScale(), 42); err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		"CREATE TABLE nulls (a INT, b INT, t TEXT)",
		`INSERT INTO nulls VALUES
			(1, 10, 'alpha'), (2, NULL, 'beta'), (NULL, 30, NULL),
			(4, NULL, 'delta'), (NULL, NULL, NULL), (6, 60, 'zeta'),
			(7, 10, 'alpha'), (8, 30, 'eta')`,
		"ANALYZE nulls",
		// Join keys of every kind, with duplicates, NULLs, floats that are
		// and are not integral, and dates that equal nulls.b as day numbers.
		"CREATE TABLE keys (ki INT, kf FLOAT, kd DATE, kt TEXT)",
		`INSERT INTO keys VALUES
			(10, 10.0, date '1970-01-11', 'alpha'), (10, 10.5, date '1970-01-31', 'alpha'),
			(30, 30.0, date '1970-01-11', 'eta'), (NULL, 60.0, NULL, NULL),
			(60, NULL, date '1970-03-02', 'zeta'), (7, 7.0, date '1970-01-08', 'beta'),
			(30, 2.5, date '1970-01-31', NULL)`,
		"ANALYZE keys",
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("setup %q: %v", q, err)
		}
	}
}

// diffCorpus is the operator-coverage query set: every workload query
// (seq scans, index scans, hash joins inner/outer, aggregation, sort,
// limit, derived tables) plus targeted shapes for DISTINCT, BETWEEN, IN,
// LIKE, IS NULL, and non-equi nested loops.
func diffCorpus() []struct{ name, src string } {
	corpus := []struct{ name, src string }{
		{"distinct", "SELECT DISTINCT o_orderpriority FROM orders"},
		{"distinct_sorted", "SELECT DISTINCT o_orderstatus FROM orders ORDER BY 1"},
		{"between", "SELECT count(*) FROM lineitem WHERE l_discount BETWEEN 0.02 AND 0.04"},
		{"in_list", "SELECT c_name FROM customer WHERE c_custkey IN (1, 5, 7, 999)"},
		{"not_like", "SELECT count(*) FROM orders WHERE o_comment NOT LIKE '%pending%'"},
		{"nonequi_nl", "SELECT count(*) FROM customer, orders WHERE c_custkey < o_custkey AND o_custkey < 5"},
		{"left_nonequi", "SELECT count(*) FROM nulls LEFT JOIN customer ON a > c_custkey AND c_custkey < 3"},
		{"is_null", "SELECT a, b, t FROM nulls WHERE b IS NULL"},
		{"is_not_null", "SELECT count(*) FROM nulls WHERE t IS NOT NULL"},
		{"proj_arith", "SELECT o_orderkey + 1, o_totalprice * 2.0 FROM orders WHERE o_orderkey < 50 ORDER BY 1"},
		{"order_limit", "SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 7"},
		{"empty_agg", "SELECT sum(o_totalprice), count(*) FROM orders WHERE o_orderkey < 0"},
		// LIMIT without a Sort below it: the row budget reaches the scans
		// and joins, which must stop charging exactly where the tuple
		// executor stops pulling.
		{"limit_seq_midpage", "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 30 LIMIT 10"},
		{"limit_index_range", "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey >= 100 AND o_orderkey < 130 AND o_totalprice > 100.0 LIMIT 10"},
		{"limit_index_open", "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey >= 900 LIMIT 10"},
		// The two shapes whose path the tuple fraction flips: an index scan
		// entered mid-heap instead of a sequential scan, and an index
		// nested loop fed by one instead of a hash join.
		{"limit_range_midheap", "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey >= 750 LIMIT 10"},
		{"limit_pipelined_join", "SELECT a.o_orderkey, b.o_totalprice FROM orders a, orders b WHERE a.o_orderkey = b.o_orderkey AND a.o_orderkey >= 750 LIMIT 5"},
		{"limit_group", "SELECT o_custkey, count(*) FROM orders GROUP BY o_custkey LIMIT 5"},
		{"limit_distinct", "SELECT DISTINCT o_orderpriority FROM orders LIMIT 3"},
		{"limit_hash_join", "SELECT c_name, o_orderkey FROM customer, orders WHERE c_custkey = o_custkey LIMIT 15"},
		{"limit_hash_join_residual", "SELECT c_name, o_orderkey FROM customer, orders WHERE c_custkey = o_custkey AND c_acctbal < o_totalprice LIMIT 15"},
		{"limit_build_outer", "SELECT c_custkey, o_orderkey FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey LIMIT 20"},
		{"limit_build_outer_tail", "SELECT c_custkey, o_orderkey FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_orderkey < 50 LIMIT 180"},
		{"limit_nl_join", "SELECT c_custkey, o_orderkey FROM customer, orders WHERE c_custkey < o_custkey AND o_custkey < 5 LIMIT 7"},
		{"limit_nl_left", "SELECT a, c_custkey FROM nulls LEFT JOIN customer ON a > c_custkey AND c_custkey < 3 LIMIT 4"},
		{"limit_derived", "SELECT c_count FROM (SELECT o_custkey, count(*) AS c_count FROM orders GROUP BY o_custkey LIMIT 20) oc WHERE c_count > 1"},
		{"limit_filter_derived", "SELECT k FROM (SELECT o_orderkey AS k, o_totalprice AS p FROM orders) d WHERE p > 1000.0 LIMIT 9"},
		{"limit_zero", "SELECT o_orderkey FROM orders LIMIT 0"},
		{"limit_beyond_rows", "SELECT c_custkey FROM customer LIMIT 100000"},
		// Hash joins whose output order shows the bucket order (several
		// build rows per key), with NULL keys on either side, keys that
		// only match after normalisation (INT = FLOAT, INT = DATE),
		// multi-column and string keys, residuals over both sides, LEFT
		// joins probing with and building on the outer side, and row
		// budgets above them. The spill config runs them all with a hash
		// table that does not fit work_mem.
		{"join_dup_keys", "SELECT a.o_orderkey, b.o_orderkey FROM orders a, orders b WHERE a.o_custkey = b.o_custkey AND a.o_orderkey < 60"},
		{"join_int_float", "SELECT o_orderkey, kf, kt FROM orders, keys WHERE o_custkey = kf"},
		{"join_int_date", "SELECT o_orderkey, kd, ki FROM orders, keys WHERE o_custkey = kd"},
		{"join_float_date", "SELECT ki, kf, kd FROM keys, nulls WHERE kf = b AND kd > date '1970-01-01'"},
		{"join_null_keys", "SELECT o_orderkey, a, b FROM orders, nulls WHERE o_custkey = b"},
		{"join_two_keys", "SELECT a.o_orderkey, b.o_orderkey FROM orders a, orders b WHERE a.o_custkey = b.o_custkey AND a.o_orderdate = b.o_orderdate AND a.o_orderkey < 200"},
		{"join_int_text_keys", "SELECT a, ki, kf FROM nulls, keys WHERE b = ki AND t = kt"},
		{"join_text_key", "SELECT a, ki FROM nulls, keys WHERE t = kt"},
		{"join_residual", "SELECT o_orderkey, ki, kf FROM orders, keys WHERE o_custkey = ki AND o_totalprice > kf * 1000.0"},
		{"left_probe_residual", "SELECT o_orderkey, ki, kf FROM orders LEFT JOIN keys ON o_custkey = ki AND o_totalprice > kf * 5000.0 WHERE o_orderkey < 300"},
		{"left_probe_null_keys", "SELECT a, b, ki, kf FROM nulls LEFT JOIN keys ON b = ki"},
		{"left_build_outer_residual", "SELECT ki, kt, o_orderkey FROM keys LEFT JOIN orders ON ki = o_custkey AND o_totalprice > kf * 5000.0"},
		{"left_build_outer_tail", "SELECT c_custkey, c_name, o_orderkey, o_comment FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey AND c_acctbal < o_totalprice - 90000.0"},
		{"limit_join_dup_keys", "SELECT a.o_orderkey, b.o_orderkey FROM orders a, orders b WHERE a.o_custkey = b.o_custkey AND a.o_totalprice < b.o_totalprice LIMIT 37"},
		{"limit_left_build_outer_residual", "SELECT ki, kt, o_orderkey FROM keys LEFT JOIN orders ON ki = o_custkey AND o_totalprice > kf * 5000.0 LIMIT 11"},
		{"limit_left_probe_null_keys", "SELECT a, b, ki FROM nulls LEFT JOIN keys ON b = ki LIMIT 9"},
		// Aggregates over every group-key shape (one INT, one TEXT, two
		// TEXT below and above the small-list cutoff, INT with DATE,
		// FLOAT, keys with NULLs, none at all), every aggregate function,
		// arguments with NULLs and from a LEFT join's extensions.
		{"agg_int_key", "SELECT o_custkey, count(*), sum(o_totalprice), min(o_orderdate), max(o_comment) FROM orders GROUP BY o_custkey"},
		{"agg_text_key", "SELECT o_orderpriority, count(*), avg(o_totalprice), min(o_totalprice), max(o_orderkey) FROM orders GROUP BY o_orderpriority"},
		{"agg_text_pair", "SELECT o_orderstatus, o_orderpriority, count(*), sum(o_totalprice * 2.0), sum(o_orderkey + 1) FROM orders GROUP BY o_orderstatus, o_orderpriority"},
		{"agg_text_pair_many", "SELECT c_name, c_mktsegment, count(*), sum(c_acctbal) FROM customer GROUP BY c_name, c_mktsegment"},
		{"agg_int_date_keys", "SELECT o_custkey, o_orderdate, count(*), sum(o_totalprice) FROM orders WHERE o_orderkey < 400 GROUP BY o_custkey, o_orderdate"},
		{"agg_float_key", "SELECT kf, count(*), count(ki), sum(ki), max(kt) FROM keys GROUP BY kf"},
		{"agg_null_keys", "SELECT b, t, count(*), count(a), sum(a), avg(a), min(t), max(a) FROM nulls GROUP BY b, t"},
		{"agg_null_key", "SELECT b, count(*), sum(a), min(a) FROM nulls GROUP BY b"},
		{"agg_global_nulls", "SELECT count(*), count(b), sum(b), avg(b), min(t), max(t) FROM nulls"},
		{"agg_left_join", "SELECT ki, count(o_orderkey), sum(o_totalprice), max(o_orderdate) FROM keys LEFT JOIN orders ON ki = o_custkey GROUP BY ki"},
		{"agg_date_key", "SELECT kd, count(*), sum(kf) FROM keys GROUP BY kd"},
	}
	// The same budget at sizes that end inside a page, inside one probe
	// row's bucket (self-join buckets hold several orders), between probe
	// rows, in a LEFT join's null extensions, and past the last row.
	for _, shape := range []struct{ name, src string }{
		{"scan", "SELECT l_orderkey FROM lineitem WHERE l_discount > 0.05"},
		{"index", "SELECT o_orderkey FROM orders WHERE o_orderkey >= 700 AND o_orderkey < 900 AND o_totalprice > 500.0"},
		{"distinct", "SELECT DISTINCT o_custkey FROM orders"},
		{"self_join", "SELECT a.o_orderkey, b.o_orderkey FROM orders a, orders b WHERE a.o_custkey = b.o_custkey AND a.o_orderkey < b.o_orderkey"},
		{"left_probe", "SELECT o_orderkey, c_name FROM orders LEFT JOIN customer ON o_custkey = c_custkey AND c_acctbal > 5000.0"},
		{"left_build_outer", "SELECT c_custkey, o_orderkey FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_totalprice > 3000.0"},
		{"nl", "SELECT c_custkey, o_orderkey FROM customer, orders WHERE c_custkey < o_custkey AND o_custkey < 5"},
		{"nl_left", "SELECT a, c_custkey FROM nulls LEFT JOIN customer ON a > c_custkey AND c_custkey < 6"},
	} {
		for _, n := range []int{1, 2, 3, 17, 230, 2500} {
			corpus = append(corpus, struct{ name, src string }{
				fmt.Sprintf("limit%d_%s", n, shape.name), fmt.Sprintf("%s LIMIT %d", shape.src, n)})
		}
	}
	var names []string
	for name := range workload.Queries() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		corpus = append(corpus, struct{ name, src string }{"workload_" + name, workload.Query(name)})
	}
	return corpus
}

// rowsKey renders result rows into a canonical comparable string.
func rowsKey(rows []plan.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			if v.IsNull() {
				b.WriteString("NULL")
			} else {
				fmt.Fprintf(&b, "%d:%s", v.Kind, v.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func usageEqual(a, b vm.Usage) bool {
	return a.CPUOps == b.CPUOps && a.SeqReads == b.SeqReads &&
		a.RandReads == b.RandReads && a.Writes == b.Writes &&
		a.CPUSeconds == b.CPUSeconds && a.IOSeconds == b.IOSeconds
}

func usageString(u vm.Usage) string {
	return fmt.Sprintf("cpuops=%v seq=%d rand=%d writes=%d cpus=%v ios=%v",
		u.CPUOps, u.SeqReads, u.RandReads, u.Writes, u.CPUSeconds, u.IOSeconds)
}

// runDiffQuery plans one query under the session's parameters and runs it
// on one executor against the session's snapshot, returning the result key
// and the VM usage / buffer-pool deltas it caused.
func runDiffQuery(t *testing.T, s *engine.Session, run runner, src string) (string, vm.Usage, buffer.Stats) {
	t.Helper()
	return measured(t, s, src, func() ([]plan.Row, error) {
		pl, err := s.Plan(src, s.Params)
		if err != nil {
			return nil, err
		}
		res, err := run(pl, s.ExecContext())
		if err != nil {
			return nil, err
		}
		return res.Collect()
	})
}

// runDiffPlan is runDiffQuery for an already-optimized plan, executed under
// the plan's own work_mem.
func runDiffPlan(t *testing.T, s *engine.Session, run runner, pl *optimizer.Plan) (string, vm.Usage, buffer.Stats) {
	t.Helper()
	return measured(t, s, pl.Explain(), func() ([]plan.Row, error) {
		res, err := run(pl, &executor.Context{Pool: s.Pool, VM: s.VM, WorkMemBytes: pl.Params.WorkMemBytes})
		if err != nil {
			return nil, err
		}
		return res.Collect()
	})
}

func measured(t *testing.T, s *engine.Session, what string, run func() ([]plan.Row, error)) (string, vm.Usage, buffer.Stats) {
	t.Helper()
	before := s.VM.Snapshot()
	poolBefore := s.Pool.Stats()
	rows, err := run()
	if err != nil {
		t.Fatalf("query %q: %v", what, err)
	}
	used := s.VM.Since(before)
	pa := s.Pool.Stats()
	pd := buffer.Stats{
		Hits:       pa.Hits - poolBefore.Hits,
		Misses:     pa.Misses - poolBefore.Misses,
		Evictions:  pa.Evictions - poolBefore.Evictions,
		WriteBacks: pa.WriteBacks - poolBefore.WriteBacks,
	}
	return rowsKey(rows), used, pd
}

// TestVectorizedDifferential runs the corpus under the reference and batch
// executors in lockstep — same data, same query order, fresh VM and
// buffer pool each side — and requires identical rows, bit-identical VM
// usage, and identical buffer-pool event counts for every query. The
// sweep repeats under configurations that force sort/hash spills (tiny
// work_mem) and buffer-pool pressure (tiny pool).
func TestVectorizedDifferential(t *testing.T) {
	configs := []struct {
		name string
		cfg  engine.Config
	}{
		{"default", engine.DefaultConfig()},
		{"spill", engine.Config{BufferFrac: 0.75, WorkMemFrac: 0.0001}},
		{"smallpool", engine.Config{BufferFrac: 0.05, WorkMemFrac: 0.15}},
		// A dozen frames: every table exceeds the pool, so a scan that
		// read one page past the tuple executor's stop shows in the stats.
		{"tinypool", engine.Config{BufferFrac: 0.003, WorkMemFrac: 0.15}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			st := diffSession(t, c.cfg)
			sb := diffSession(t, c.cfg)
			diffSetup(t, st)
			diffSetup(t, sb)
			if tu, bu := st.VM.Snapshot(), sb.VM.Snapshot(); !usageEqual(tu, bu) {
				t.Fatalf("setup usage diverged:\ntuple %s\nbatch %s", usageString(tu), usageString(bu))
			}

			sweep := func(phase string) {
				for _, q := range diffCorpus() {
					rt, ut, pt := runDiffQuery(t, st, executor.RunReference, q.src)
					rb, ub, pb := runDiffQuery(t, sb, executor.Run, q.src)
					if rt != rb {
						t.Errorf("%s%s: rows diverge\ntuple:\n%s\nbatch:\n%s", phase, q.name, rt, rb)
					}
					if !usageEqual(ut, ub) {
						t.Errorf("%s%s: usage diverges\ntuple %s\nbatch %s", phase, q.name, usageString(ut), usageString(ub))
					}
					if pt != pb {
						t.Errorf("%s%s: pool stats diverge\ntuple %+v\nbatch %+v", phase, q.name, pt, pb)
					}
				}
			}
			sweep("")

			// Again inside an open transaction with pending inserts and
			// deletes, so every scan (budgeted or not, heap or index) runs
			// with a non-nil visibility filter and has versions to hide.
			for _, s := range []*engine.Session{st, sb} {
				for _, q := range []string{
					"BEGIN",
					"DELETE FROM orders WHERE o_orderkey BETWEEN 101 AND 112",
					"DELETE FROM orders WHERE o_orderkey >= 990",
					"DELETE FROM lineitem WHERE l_quantity > 45",
					"DELETE FROM customer WHERE c_custkey IN (3, 5, 40)",
					"UPDATE orders SET o_totalprice = o_totalprice + 1.0 WHERE o_orderkey BETWEEN 120 AND 125",
					`INSERT INTO orders VALUES (100000, 7, 'O', 4242.0, date '1995-01-01', '1-URGENT', 'pending insert'),
						(100001, 9, 'F', 17.5, date '1993-08-01', '5-LOW', 'pending insert')`,
					"DELETE FROM nulls WHERE a = 4",
				} {
					if _, err := s.Exec(q); err != nil {
						t.Fatalf("txn setup %q: %v", q, err)
					}
				}
			}
			sweep("in txn: ")
			for _, s := range []*engine.Session{st, sb} {
				if _, err := s.Exec("ROLLBACK"); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestExplainAnalyzeRowsExact is the regression test for exact actuals
// under batching: per-node `rows=` and `loops=` in EXPLAIN ANALYZE must
// match the reference executor exactly — no batch-granularity rounding.
func TestExplainAnalyzeRowsExact(t *testing.T) {
	st := diffSession(t, engine.DefaultConfig())
	sb := diffSession(t, engine.DefaultConfig())
	diffSetup(t, st)
	diffSetup(t, sb)

	actualRE := regexp.MustCompile(`rows=(\d+) loops=(\d+)`)
	totalRE := regexp.MustCompile(`actual: (\d+) rows`)
	actuals := func(stats []executor.NodeStats) []string {
		var out []string
		for _, st := range stats {
			out = append(out, fmt.Sprintf("rows=%d loops=%d", st.Rows, st.Loops))
		}
		return out
	}

	queries := map[string]string{
		// A budgeted index scan: every node stops at the tenth row.
		"index_limit": "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey >= 900 LIMIT 10",
		// A Sort under LIMIT reports the rows it handed over, not its input.
		"sort_limit": "SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 7",
	}
	for _, name := range []string{"Q1", "Q3", "Q4", "Q6", "Q13", "Q13FULL", "QPOINT"} {
		queries[name] = workload.Query(name)
	}
	for name, src := range queries {
		// Per-node rows and usage: every node's inclusive VM usage is the
		// same on both executors, and the root's is the whole statement's.
		statsT, totalT, nT := runWithStats(t, st, executor.RunReference, src)
		statsB, totalB, _ := runWithStats(t, sb, executor.Run, src)
		if !usageEqual(totalT, totalB) {
			t.Errorf("%s: statement usage diverges\nreference %s\nbatch %s", name, usageString(totalT), usageString(totalB))
		}
		if len(statsT) == 0 || len(statsT) != len(statsB) {
			t.Fatalf("%s: %d nodes ran on the reference executor, %d on the batch one", name, len(statsT), len(statsB))
		}
		// A node's usage is a sum of VM-clock deltas, so its seconds carry
		// rounding; the counters under them are exact.
		counters := func(u vm.Usage) [4]float64 {
			return [4]float64{u.CPUOps, float64(u.SeqReads), float64(u.RandReads), float64(u.Writes)}
		}
		for i := range statsT {
			nt, nb := statsT[i], statsB[i]
			if nt.Rows != nb.Rows || nt.Loops != nb.Loops || counters(nt.Usage) != counters(nb.Usage) {
				t.Errorf("%s node %d: reference rows=%d loops=%d %s\nbatch rows=%d loops=%d %s", name, i,
					nt.Rows, nt.Loops, usageString(nt.Usage), nb.Rows, nb.Loops, usageString(nb.Usage))
			}
		}
		if counters(statsB[0].Usage) != counters(totalB) {
			t.Errorf("%s: root node usage %s, statement total %s", name, usageString(statsB[0].Usage), usageString(totalB))
		}

		// EXPLAIN ANALYZE prints exactly those actuals. (The reference runs
		// once more too, so the two VM clocks stay in step.)
		outB, err := sb.Explain("EXPLAIN ANALYZE " + src)
		if err != nil {
			t.Fatalf("%s batch: %v", name, err)
		}
		runWithStats(t, st, executor.RunReference, src)
		rowsB := actualRE.FindAllString(outB, -1)
		if fmt.Sprint(actuals(statsT)) != fmt.Sprint(rowsB) {
			t.Errorf("%s: per-node actuals diverge\nreference: %v\nbatch: %v\n%s", name, actuals(statsT), rowsB, outB)
		}
		if tB, want := totalRE.FindString(outB), fmt.Sprintf("actual: %d rows", nT); tB != want {
			t.Errorf("%s: total rows diverge: reference %q, batch %q", name, want, tB)
		}
		want := map[string]string{
			"index_limit": "[rows=10 loops=1 rows=10 loops=1 rows=10 loops=1]",
			"sort_limit":  "[rows=7 loops=1 rows=7 loops=1 rows=1000 loops=1 rows=1000 loops=1]",
		}[name]
		if want != "" && fmt.Sprint(rowsB) != want {
			t.Errorf("%s: per-node actuals %v, want %s\n%s", name, rowsB, want, outB)
		}
	}
}

// runWithStats executes src on one executor with per-node statistics and
// returns them in plan order (root first), the statement's total VM usage
// and the number of rows it produced.
func runWithStats(t *testing.T, s *engine.Session, run runner, src string) ([]executor.NodeStats, vm.Usage, int) {
	t.Helper()
	pl, err := s.Plan(src, s.Params)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.ExecContext()
	ctx.Stats = executor.NewStatsCollector()
	before := s.VM.Snapshot()
	res, err := run(pl, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	total := s.VM.Since(before)
	var stats []executor.NodeStats
	pl.ExplainAnnotated(func(n optimizer.Node) string {
		if st := ctx.Stats.For(n); st != nil {
			stats = append(stats, *st)
		}
		return ""
	})
	return stats, total, len(rows)
}

// zoneSetup creates a clustered table whose pages carry tight zone
// ranges: k inserted in ascending order, v entirely NULL over the middle
// third (whole pages of NULLs), and a padded text column so the table
// spans many pages.
func zoneSetup(t testing.TB, s *engine.Session, rows int) {
	t.Helper()
	if _, err := s.Exec("CREATE TABLE z (k INT, v INT, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("z", 40)
	var vals []string
	flush := func() {
		if len(vals) == 0 {
			return
		}
		if _, err := s.Exec("INSERT INTO z VALUES " + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
		vals = vals[:0]
	}
	for i := 0; i < rows; i++ {
		v := fmt.Sprintf("%d", i%100)
		if i >= rows/3 && i < 2*rows/3 {
			v = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%d, %s, 'row-%06d-%s')", i, v, i, pad))
		if len(vals) == 400 {
			flush()
		}
	}
	flush()
	if _, err := s.Exec("ANALYZE z"); err != nil {
		t.Fatal(err)
	}
}

// TestZoneMapSkippingParity is the zone-map correctness property test:
// across predicates at 0%, ~50%, and 100% selectivity and at NULL
// boundaries, page skipping must never change results or simulated
// costs, and provably-false predicates must actually skip pages.
func TestZoneMapSkippingParity(t *testing.T) {
	const rows = 6000
	st := diffSession(t, engine.DefaultConfig())
	sb := diffSession(t, engine.DefaultConfig())
	zoneSetup(t, st, rows)
	zoneSetup(t, sb, rows)

	skipped := obs.Global.Counter("executor.batch.pages_skipped")
	cases := []struct {
		name     string
		src      string
		mustSkip bool // batch mode must skip at least one page
		zeroSkip bool // batch mode must skip no pages
	}{
		{"sel0_lt", "SELECT count(*), sum(k) FROM z WHERE k < 0", true, false},
		{"sel0_gt", "SELECT count(*) FROM z WHERE k > 999999", true, false},
		{"sel0_eq", "SELECT k, v FROM z WHERE k = -3", true, false},
		{"sel0_between", "SELECT count(*) FROM z WHERE k BETWEEN -10 AND -1", true, false},
		{"sel50_lt", fmt.Sprintf("SELECT count(*), sum(k) FROM z WHERE k < %d", rows/2), true, false},
		{"sel100_ge", "SELECT count(*), sum(k) FROM z WHERE k >= 0", false, true},
		{"sel100_ne", "SELECT count(*) FROM z WHERE k <> -1", false, true},
		{"null_pages_eq", "SELECT count(*) FROM z WHERE v = -1", true, false},
		{"null_boundary_lt", "SELECT count(*), sum(v) FROM z WHERE v < 10", false, false},
		{"null_is_null", "SELECT count(*) FROM z WHERE v IS NULL", false, false},
		{"not_between", fmt.Sprintf("SELECT count(*) FROM z WHERE k NOT BETWEEN 0 AND %d", rows), true, false},
		{"string_eq", "SELECT count(*) FROM z WHERE s = 'absent'", true, false},
		{"conj_prefix", fmt.Sprintf("SELECT count(*) FROM z WHERE k >= 0 AND k > %d", rows*2), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, ut, pt := runDiffQuery(t, st, executor.RunReference, tc.src)
			before := skipped.Value()
			rb, ub, pb := runDiffQuery(t, sb, executor.Run, tc.src)
			delta := skipped.Value() - before
			if rt != rb {
				t.Errorf("rows diverge\ntuple:\n%s\nbatch:\n%s", rt, rb)
			}
			if !usageEqual(ut, ub) {
				t.Errorf("usage diverges\ntuple %s\nbatch %s", usageString(ut), usageString(ub))
			}
			if pt != pb {
				t.Errorf("pool stats diverge: tuple %+v, batch %+v", pt, pb)
			}
			if tc.mustSkip && delta == 0 {
				t.Error("expected zone maps to skip pages, none skipped")
			}
			if tc.zeroSkip && delta != 0 {
				t.Errorf("predicate passes every page, yet %d pages skipped", delta)
			}
		})
	}
}

// latticeParams mirrors the 108-point allocation lattice of the
// optimizer's re-costing tests (recostLattice): wide enough to flip
// access paths, join methods, build sides, and spill decisions.
func latticeParams() []optimizer.Params {
	var out []optimizer.Params
	for _, rpc := range []float64{1.05, 4, 40} {
		for _, cpuScale := range []float64{0.2, 1, 8} {
			for _, cache := range []int64{64, 4096, 1 << 20} {
				for _, workMem := range []int64{32 << 10, 4 << 20} {
					for _, tpp := range []struct{ t, ov float64 }{{0, 0}, {2e-4, 0.7}} {
						p := optimizer.DefaultParams()
						p.RandomPageCost = rpc
						p.CPUTupleCost *= cpuScale
						p.CPUIndexTupleCost *= cpuScale
						p.CPUOperatorCost *= cpuScale
						p.EffectiveCacheSizePages = cache
						p.WorkMemBytes = workMem
						p.TimePerSeqPage = tpp.t
						p.Overlap = tpp.ov
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

var latticeQueries = []struct{ name, src string }{
	{"point", `SELECT o_totalprice FROM orders WHERE o_orderkey = 42`},
	{"range", `SELECT o_totalprice FROM orders WHERE o_orderkey >= 100 AND o_orderkey < 800`},
	{"join2", `SELECT c_name, o_totalprice FROM customer, orders
		WHERE c_custkey = o_custkey AND o_totalprice > 500.0`},
	{"join3", `SELECT c_mktsegment, count(*) FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_quantity > 25.0
		GROUP BY c_mktsegment ORDER BY 1`},
	{"outer", `SELECT c_custkey, count(o_orderkey) FROM customer
		LEFT OUTER JOIN orders ON c_custkey = o_custkey
		GROUP BY c_custkey`},
	{"toplimit", `SELECT o_orderkey, o_totalprice FROM orders
		WHERE o_custkey < 100 ORDER BY o_totalprice LIMIT 10`},
	{"derived", `SELECT c_count, count(*) FROM
		(SELECT o_custkey, count(*) AS c_count FROM orders GROUP BY o_custkey) oc
		GROUP BY c_count`},
	// Two key ranges on indexed join columns: across the lattice the plan
	// moves between hash, merge (over index scans or sorts) and index
	// nested-loops joins.
	{"keyrange_join", `SELECT count(*) FROM orders, lineitem
		WHERE o_orderkey = l_orderkey AND o_orderkey BETWEEN 100 AND 400 AND l_orderkey BETWEEN 100 AND 400`},
	{"keyrange_join_limit", `SELECT o_orderkey, l_quantity FROM orders, lineitem
		WHERE o_orderkey = l_orderkey AND o_orderkey BETWEEN 100 AND 400 AND l_orderkey BETWEEN 100 AND 400
		LIMIT 25`},
	{"join_limit", `SELECT o_orderkey, l_quantity FROM orders, lineitem
		WHERE o_orderkey = l_orderkey AND l_quantity > 10.0 LIMIT 12`},
	{"index_limit", `SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey >= 900 LIMIT 10`},
	// Index nested loops whose outer side is itself an index scan or an
	// index nested loop: the probes interleave with the outer's fetches.
	{"probe_from_index", `SELECT o_orderkey, l_quantity FROM orders, lineitem
		WHERE o_orderkey = l_orderkey AND o_orderkey BETWEEN 100 AND 400`},
	{"probe_stacked", `SELECT c_custkey, o_orderkey, l_quantity FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND c_custkey BETWEEN 10 AND 30`},
}

// TestLatticeCostParity sweeps the full allocation lattice and requires
// the estimated plan costs — and therefore every cost ranking derived
// from them — to be bit-identical between two sessions over the same data,
// and the chosen plans byte-identical. For a third of the
// lattice it additionally executes that lattice point's own plan on both
// engines and requires identical rows, bit-identical actual usage and
// equal buffer-pool events — which is where the access paths and join
// methods the session-default parameters never pick get their parity
// check, so the test fails unless each of them was executed.
func TestLatticeCostParity(t *testing.T) {
	// A pool of a dozen frames, far below any table here, makes the order
	// of buffer-pool events matter: an operator that fetched ahead of the
	// tuple executor would evict different pages and read a different
	// number back.
	t.Run("default", func(t *testing.T) { latticeCostParity(t, engine.DefaultConfig()) })
	t.Run("tinypool", func(t *testing.T) { latticeCostParity(t, engine.Config{BufferFrac: 0.003, WorkMemFrac: 0.15}) })
}

func latticeCostParity(t *testing.T, cfg engine.Config) {
	st := diffSession(t, cfg)
	sb := diffSession(t, cfg)
	diffSetup(t, st)
	diffSetup(t, sb)
	t.Logf("buffer pool: %d frames", sb.Pool.NumFrames())

	executed := map[string]int{}
	lattice := latticeParams()
	for _, q := range latticeQueries {
		for i, p := range lattice {
			pt, err := st.Plan(q.src, p)
			if err != nil {
				t.Fatalf("%s tuple plan [%d]: %v", q.name, i, err)
			}
			pb, err := sb.Plan(q.src, p)
			if err != nil {
				t.Fatalf("%s batch plan [%d]: %v", q.name, i, err)
			}
			if pt.TotalCost() != pb.TotalCost() {
				t.Fatalf("%s lattice[%d]: total cost %v (tuple) vs %v (batch)",
					q.name, i, pt.TotalCost(), pb.TotalCost())
			}
			if pt.EstimatedSeconds() != pb.EstimatedSeconds() {
				t.Fatalf("%s lattice[%d]: estimated seconds %v (tuple) vs %v (batch)",
					q.name, i, pt.EstimatedSeconds(), pb.EstimatedSeconds())
			}
			if pt.Explain() != pb.Explain() {
				t.Fatalf("%s lattice[%d]: plans diverge:\n%s\nvs\n%s",
					q.name, i, pt.Explain(), pb.Explain())
			}

			if i%3 == 0 {
				// Execute this lattice point's own plan on both engines.
				rt, ut, ppt := runDiffPlan(t, st, executor.RunReference, pt)
				rb, ub, ppb := runDiffPlan(t, sb, executor.Run, pb)
				if rt != rb {
					t.Fatalf("%s lattice[%d]: executed rows diverge\n%s", q.name, i, pt.Explain())
				}
				if !usageEqual(ut, ub) {
					t.Fatalf("%s lattice[%d]: executed usage diverges\ntuple %s\nbatch %s\n%s",
						q.name, i, usageString(ut), usageString(ub), pt.Explain())
				}
				if ppt != ppb {
					t.Fatalf("%s lattice[%d]: pool stats diverge\ntuple %+v\nbatch %+v\n%s",
						q.name, i, ppt, ppb, pt.Explain())
				}
				pt.ExplainAnnotated(func(n optimizer.Node) string {
					executed[fmt.Sprintf("%T", n)]++
					return ""
				})
			}
		}
	}
	t.Logf("executed operators: %v", executed)
	for _, op := range []string{"IndexScan", "IndexNLJoin", "MergeJoin", "Limit", "HashJoin", "Sort"} {
		if executed["*optimizer."+op] == 0 {
			t.Errorf("no executed lattice plan contained a %s: it ran under no parity check", op)
		}
	}
}

// TestOpenIndexRangeReachesInt64Ends is the regression test for open-ended
// index ranges: a missing bound used to be replaced by ±2^62, so keys
// beyond it were dropped by IndexScan (and by the UPDATE/DELETE victim
// scans planned through it) while SeqScan returned them.
func TestOpenIndexRangeReachesInt64Ends(t *testing.T) {
	{
		s := diffSession(t, engine.DefaultConfig())
		exec := func(q string) int64 {
			t.Helper()
			n, err := s.Exec(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			return n
		}
		exec("CREATE TABLE big (k INT, v INT)")
		var vals []string
		for i := 0; i < 30000; i++ {
			vals = append(vals, fmt.Sprintf("(%d, 0)", i))
		}
		exec("INSERT INTO big VALUES " + strings.Join(vals, ", "))
		exec("INSERT INTO big VALUES (5000000000000000000, 0), (-5000000000000000000, 0)")
		exec("CREATE INDEX big_k ON big (k)")
		exec("ANALYZE big")
		s.Params.RandomPageCost = 0.01 // index access wins every range

		for _, q := range []string{
			"SELECT k FROM big WHERE k >= 29995",
			"SELECT k FROM big WHERE k <= 3",
			"UPDATE big SET v = 1 WHERE k >= 29995",
			"DELETE FROM big WHERE k <= 3",
		} {
			expl, err := s.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(expl, "IndexScan") {
				t.Fatalf("%q is not planned as an IndexScan:\n%s", q, expl)
			}
		}
		count := func(q string) int {
			t.Helper()
			rows, _, err := s.QueryRows(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			return len(rows)
		}
		if n := count("SELECT k FROM big WHERE k >= 29995"); n != 6 {
			t.Errorf("k >= 29995 returned %d rows, want 6 (5 + the 5e18 outlier)", n)
		}
		if n := count("SELECT k FROM big WHERE k <= 3"); n != 5 {
			t.Errorf("k <= 3 returned %d rows, want 5 (4 + the -5e18 outlier)", n)
		}
		if n := exec("UPDATE big SET v = 1 WHERE k >= 29995"); n != 6 {
			t.Errorf("UPDATE touched %d rows, want 6", n)
		}
		if n := exec("DELETE FROM big WHERE k <= 3"); n != 5 {
			t.Errorf("DELETE removed %d rows, want 5", n)
		}
	}
}

// TestBatchModeIsDefault checks that statements run on the batch executor
// and that its observability counters move.
func TestBatchModeIsDefault(t *testing.T) {
	s := diffSession(t, engine.DefaultConfig())
	if _, err := s.Exec("CREATE TABLE tiny (x INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO tiny VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	batches := obs.Global.Counter("executor.batch.batches").Value()
	rows, _, err := s.QueryRows("SELECT x FROM tiny WHERE x > 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if obs.Global.Counter("executor.batch.batches").Value() == batches {
		t.Error("executor.batch.batches did not advance under the default mode")
	}

	// Index access and LIMIT run on the batch path too: an index scan
	// counts the heap tuples it fetches without touching the per-page block
	// counters, and a LIMIT that is met early counts the scan it stopped.
	diffSetup(t, s)
	counter := func(name string) int64 { return obs.Global.Counter("executor.batch." + name).Value() }
	tuples, hits, decoded := counter("index_tuples"), counter("block_cache_hits"), counter("blocks_decoded")
	if _, _, err := s.QueryRows(workload.Query("Q6")); err != nil {
		t.Fatal(err)
	}
	if counter("index_tuples") == tuples {
		t.Error("executor.batch.index_tuples did not advance on Q6's index scan")
	}
	if counter("block_cache_hits") != hits || counter("blocks_decoded") != decoded {
		t.Error("per-tuple index fetches moved the per-page block counters")
	}
	stops := counter("limit_stops")
	if _, _, err := s.QueryRows("SELECT o_orderkey FROM orders WHERE o_orderkey >= 900 LIMIT 10"); err != nil {
		t.Fatal(err)
	}
	if counter("limit_stops") != stops+1 {
		t.Errorf("executor.batch.limit_stops advanced by %d on a LIMIT met early, want 1", counter("limit_stops")-stops)
	}
}

// TestLimitAccessPathsDifferential runs both access paths of the oltp
// range read — a sequential scan and an index scan under a LIMIT — over a
// grid of lower bounds and limits on both executors: the plans whose
// measured order TestLimitRankMatchesMeasured compares.
func TestLimitAccessPathsDifferential(t *testing.T) {
	st := diffSession(t, engine.DefaultConfig())
	sb := diffSession(t, engine.DefaultConfig())
	for _, s := range []*engine.Session{st, sb} {
		if err := workload.BuildWriteBase(s, 20000, 7); err != nil {
			t.Fatal(err)
		}
	}
	// Dear random pages force the sequential scan; cheap ones and a dear
	// filter operator, which the index scan's key range absorbs, force the
	// index scan.
	for _, path := range []struct {
		leaf     string
		rpc, opc float64
	}{{"SeqScan", 1e6, 0.0025}, {"IndexScan", 1e-6, 1}} {
		p := st.Params
		p.RandomPageCost, p.CPUOperatorCost = path.rpc, path.opc
		for _, k := range []int{100, 1000, 5000, 9999, 15000, 19900} {
			for _, lim := range []int{1, 10, 1000} {
				src := fmt.Sprintf("SELECT a_id, a_bal FROM account WHERE a_id >= %d LIMIT %d", k, lim)
				pt, err := st.Plan(src, p)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(pt.Explain(), path.leaf) {
					t.Fatalf("%s: want a %s:\n%s", src, path.leaf, pt.Explain())
				}
				pb, err := sb.Plan(src, p)
				if err != nil {
					t.Fatal(err)
				}
				rt, ut, ppt := runDiffPlan(t, st, executor.RunReference, pt)
				rb, ub, ppb := runDiffPlan(t, sb, executor.Run, pb)
				if rt != rb || !usageEqual(ut, ub) || ppt != ppb {
					t.Errorf("%s over %s: reference %s %+v, batch %s %+v", src, path.leaf,
						usageString(ut), ppt, usageString(ub), ppb)
				}
			}
		}
	}
}
