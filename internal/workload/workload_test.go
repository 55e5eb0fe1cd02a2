package workload

import (
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
)

func buildTiny(t *testing.T) *engine.Session {
	t.Helper()
	m := vm.MustMachine(vm.DefaultMachineConfig())
	v, err := m.NewVM("loader", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(engine.NewDatabase(), v, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := Build(s, TinyScale(), 42); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildCreatesTablesAndRows(t *testing.T) {
	s := buildTiny(t)
	counts := map[string]int64{}
	for _, tbl := range []string{"customer", "orders", "lineitem"} {
		rows, _, err := s.QueryRows("SELECT count(*) FROM " + tbl)
		if err != nil {
			t.Fatalf("%s: %v", tbl, err)
		}
		counts[tbl] = rows[0][0].I
	}
	sc := TinyScale()
	if counts["customer"] != int64(sc.Customers) {
		t.Errorf("customers = %d", counts["customer"])
	}
	if counts["orders"] != int64(sc.Orders) {
		t.Errorf("orders = %d", counts["orders"])
	}
	// Lines per order average around LinesPerOrder.
	avg := float64(counts["lineitem"]) / float64(counts["orders"])
	if avg < float64(sc.LinesPerOrder)-1 || avg > float64(sc.LinesPerOrder)+1 {
		t.Errorf("lineitem avg per order = %g, want ~%d", avg, sc.LinesPerOrder)
	}
}

func TestBuildDeterministic(t *testing.T) {
	s1 := buildTiny(t)
	s2 := buildTiny(t)
	q := "SELECT sum(o_totalprice), count(*) FROM orders WHERE o_custkey < 50"
	r1, _, err := s1.QueryRows(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, _ := s2.QueryRows(q)
	if r1[0][0].F != r2[0][0].F || r1[0][1].I != r2[0][1].I {
		t.Error("same seed should generate identical data")
	}
}

func TestIndexesAndStatsBuilt(t *testing.T) {
	s := buildTiny(t)
	orders, err := s.DB.Catalog.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(orders.Indexes) != 3 {
		t.Errorf("orders has %d indexes, want 3", len(orders.Indexes))
	}
	if orders.Stats == nil || orders.Stats.NumRows != int64(TinyScale().Orders) {
		t.Errorf("orders stats = %+v", orders.Stats)
	}
	// The o_orderdate index must be strongly correlated (loaded in date
	// order) — the optimizer relies on this.
	for _, ix := range orders.Indexes {
		if ix.Name == "orders_orderdate" && ix.Stats.Correlation < 0.95 {
			t.Errorf("orderdate correlation = %g, want ~1", ix.Stats.Correlation)
		}
	}
}

func TestAllQueriesRun(t *testing.T) {
	s := buildTiny(t)
	for name, q := range Queries() {
		rows, _, err := s.QueryRows(q)
		if err != nil {
			t.Errorf("query %s failed: %v", name, err)
			continue
		}
		switch name {
		case "Q1":
			if len(rows) == 0 || len(rows) > 6 {
				t.Errorf("Q1 groups = %d, want 1..6", len(rows))
			}
		case "Q13":
			if len(rows) != TinyScale().Customers {
				t.Errorf("Q13 must keep all %d customers, got %d", TinyScale().Customers, len(rows))
			}
		case "Q4":
			if len(rows) == 0 || len(rows) > 5 {
				t.Errorf("Q4 groups = %d, want 1..5", len(rows))
			}
		}
	}
}

func TestQ13CountsOnlyMatchingOrders(t *testing.T) {
	s := buildTiny(t)
	// Sum of per-customer counts == orders whose comment passes NOT LIKE.
	rows, _, err := s.QueryRows(Query("Q13"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rows {
		total += r[1].I
	}
	cnt, _, err := s.QueryRows(
		`SELECT count(*) FROM orders WHERE o_comment NOT LIKE '%special%requests%'`)
	if err != nil {
		t.Fatal(err)
	}
	if total != cnt[0][0].I {
		t.Errorf("Q13 total %d != filtered orders %d", total, cnt[0][0].I)
	}
	if cnt[0][0].I == int64(TinyScale().Orders) {
		t.Error("some comments should contain the special phrase")
	}
}

func TestCommentGeneration(t *testing.T) {
	s := buildTiny(t)
	rows, _, err := s.QueryRows("SELECT o_comment FROM orders LIMIT 50")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		c := r[0].S
		if len(c) == 0 || len(c) > TinyScale().CommentLen {
			t.Errorf("comment length %d out of range", len(c))
		}
	}
}

func TestRepeatAndMix(t *testing.T) {
	w := Repeat("w", "SELECT 1 FROM t", 3)
	if len(w.Statements) != 3 || w.Name != "w" {
		t.Errorf("Repeat = %+v", w)
	}
}

// TestParseRepeat: the one QUERYxN parser both CLIs use.
func TestParseRepeat(t *testing.T) {
	for _, c := range []struct {
		in    string
		query string
		n     int // 0: an error
	}{
		{"Q4x3", "Q4", 3},
		{"q13x9", "Q13", 9},
		{" Q13FULLx2 ", "Q13FULL", 2},
		{"QPOINT", "QPOINT", 1},
		{"Q4x", "", 0},
		{"Q4x0", "", 0},
		{"Q4x-1", "", 0},
		{"Q4xy", "", 0},
		{"Q99x2", "", 0},
		{"", "", 0},
	} {
		q, n, err := ParseRepeat(c.in)
		if c.n == 0 {
			if err == nil {
				t.Errorf("ParseRepeat(%q) = %q, %d; want an error", c.in, q, n)
			}
			continue
		}
		if err != nil || q != c.query || n != c.n {
			t.Errorf("ParseRepeat(%q) = %q, %d, %v; want %q, %d", c.in, q, n, err, c.query, c.n)
		}
	}
}

func TestQueryPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Query("nope")
}

func TestScalesAreOrdered(t *testing.T) {
	if TinyScale().Rows() >= SmallScale().Rows() || SmallScale().Rows() >= ExperimentScale().Rows() {
		t.Error("scales should increase")
	}
}

func TestQ4IsIOBoundAndQ13IsCPUBound(t *testing.T) {
	if testing.Short() {
		t.Skip("profile check needs a non-tiny build")
	}
	// Use the small scale with a machine whose memory makes lineitem
	// exceed the pool while orders+customer fit.
	cfg := vm.DefaultMachineConfig()
	cfg.MemBytes = 16 << 20
	m := vm.MustMachine(cfg)
	loader, _ := m.NewVM("loader", vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
	s, err := engine.NewSession(engine.NewDatabase(), loader, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := Build(s, SmallScale(), 7); err != nil {
		t.Fatal(err)
	}

	measure := func(query string) (cpu, io float64) {
		mm := vm.MustMachine(cfg)
		v, _ := mm.NewVM("run", vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
		sess, err := engine.NewSession(s.DB, v, engine.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Warm the cache, then measure.
		if _, err := sess.RunStatement(query); err != nil {
			t.Fatal(err)
		}
		start := v.Snapshot()
		if _, err := sess.RunStatement(query); err != nil {
			t.Fatal(err)
		}
		u := v.Since(start)
		return u.CPUSeconds, u.IOSeconds
	}

	cpu4, io4 := measure(Query("Q4"))
	cpu13, io13 := measure(Query("Q13"))
	if io4 <= cpu4 {
		t.Errorf("Q4 should be I/O-bound: cpu=%.3fs io=%.3fs", cpu4, io4)
	}
	if cpu13 <= io13 {
		t.Errorf("Q13 should be CPU-bound: cpu=%.3fs io=%.3fs", cpu13, io13)
	}
}

func TestQ13FullFormMatchesInnerForm(t *testing.T) {
	s := buildTiny(t)
	// The distribution in Q13FULL must be consistent with the per-customer
	// counts of Q13: summing custdist weighted by count equals the total
	// of matching orders, and summing custdist equals the customer count.
	dist, _, err := s.QueryRows(Query("Q13FULL"))
	if err != nil {
		t.Fatal(err)
	}
	var custTotal, orderTotal int64
	for _, r := range dist {
		custTotal += r[1].I
		orderTotal += r[0].I * r[1].I
	}
	if custTotal != int64(TinyScale().Customers) {
		t.Errorf("distribution covers %d customers, want %d", custTotal, TinyScale().Customers)
	}
	matching, _, err := s.QueryRows(
		`SELECT count(*) FROM orders WHERE o_comment NOT LIKE '%special%requests%'`)
	if err != nil {
		t.Fatal(err)
	}
	if orderTotal != matching[0][0].I {
		t.Errorf("weighted distribution = %d orders, want %d", orderTotal, matching[0][0].I)
	}
}
