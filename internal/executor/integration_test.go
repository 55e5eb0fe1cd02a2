package executor_test

import (
	"fmt"
	"strings"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/executor"
	"dbvirt/internal/vm"
)

// These tests drive the executor through its own API (Run, Context,
// StatsCollector) rather than through the engine facade, using the engine
// only to build plans.

func session(t *testing.T) *engine.Session {
	t.Helper()
	m := vm.MustMachine(vm.DefaultMachineConfig())
	v, err := m.NewVM("x", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(engine.NewDatabase(), v, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'row%d')", i, i))
	}
	if _, err := s.Exec("INSERT INTO t VALUES " + strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("ANALYZE t"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunStreamsRows(t *testing.T) {
	s := session(t)
	pl, err := s.Plan("SELECT a FROM t WHERE a < 10 ORDER BY a DESC", s.Params)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &executor.Context{Pool: s.Pool, VM: s.VM, WorkMemBytes: s.Params.WorkMemBytes}
	res, err := executor.Run(pl, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "a" {
		t.Errorf("columns = %v", res.Columns)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || rows[0][0].I != 9 || rows[9][0].I != 0 {
		t.Errorf("rows = %v", rows)
	}
}

func TestStatsCollectorCountsRows(t *testing.T) {
	s := session(t)
	pl, err := s.Plan("SELECT count(*) FROM t WHERE a < 100", s.Params)
	if err != nil {
		t.Fatal(err)
	}
	coll := executor.NewStatsCollector()
	ctx := &executor.Context{Pool: s.Pool, VM: s.VM, WorkMemBytes: s.Params.WorkMemBytes, Stats: coll}
	res, err := executor.Run(pl, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Collect(); err != nil {
		t.Fatal(err)
	}
	// Walk the plan: the scan node must report 100 rows, the root 1.
	rootStats := coll.For(pl.Root)
	if rootStats == nil || rootStats.Rows != 1 {
		t.Errorf("root stats = %+v", rootStats)
	}
	// A fresh collector has no record for unknown nodes.
	if coll.For(nil) != nil {
		t.Error("unknown node should have nil stats")
	}
}

func TestRunWithoutStatsHasNoOverhead(t *testing.T) {
	s := session(t)
	pl, err := s.Plan("SELECT a FROM t", s.Params)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &executor.Context{Pool: s.Pool, VM: s.VM, WorkMemBytes: s.Params.WorkMemBytes}
	res, err := executor.Run(pl, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Collect()
	if err != nil || len(rows) != 300 {
		t.Fatalf("rows = %d, %v", len(rows), err)
	}
}

func TestResultCloseIdempotent(t *testing.T) {
	s := session(t)
	pl, err := s.Plan("SELECT a FROM t LIMIT 5", s.Params)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &executor.Context{Pool: s.Pool, VM: s.VM, WorkMemBytes: s.Params.WorkMemBytes}
	res, err := executor.Run(pl, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := res.Next(); !ok || err != nil {
		t.Fatal("first row should exist")
	}
	res.Close()
	res.Close() // must be safe
}

// TestFloatKeysDoNotCollide runs DISTINCT, GROUP BY and a hash join over
// FLOAT keys closer than 1e-9 and beyond the int64 range, which an
// encoding of the integer part and nine decimals used to merge.
func TestFloatKeysDoNotCollide(t *testing.T) {
	s := session(t)
	for _, q := range []string{
		"CREATE TABLE f (x FLOAT, y INT)",
		"INSERT INTO f VALUES (0.1, 1), (0.1000000001, 2), (10000000000000000000.0, 3), (20000000000000000000.0, 4)",
		"CREATE TABLE u (x FLOAT)",
		"INSERT INTO u VALUES (0.1000000001), (20000000000000000000.0)",
		"ANALYZE f",
		"ANALYZE u",
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	for q, want := range map[string]string{
		"SELECT DISTINCT x FROM f":                        "[[0.1] [0.1000000001] [1e+19] [2e+19]]",
		"SELECT x FROM f GROUP BY x":                      "[[0.1] [0.1000000001] [1e+19] [2e+19]]",
		"SELECT f.y FROM f, u WHERE f.x = u.x ORDER BY 1": "[[2] [4]]",
	} {
		rows, _, err := s.QueryRows(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rows); got != want {
			t.Errorf("%s: got %s, want %s", q, got, want)
		}
	}
	if expl, _ := s.Explain("SELECT f.y FROM f, u WHERE f.x = u.x"); !strings.Contains(expl, "HashJoin") {
		t.Errorf("want a hash join:\n%s", expl)
	}
}
