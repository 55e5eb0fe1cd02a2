package core

import (
	"context"
	"testing"

	"dbvirt/internal/calibration"
	"dbvirt/internal/engine"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/sql"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// cacheDB builds one small workload database and keeps a session open on
// it so tests can run ANALYZE and DML against it.
func cacheDB(t *testing.T) (*engine.Database, *engine.Session) {
	t.Helper()
	cfg := vm.DefaultMachineConfig()
	cfg.MemBytes = 16 << 20
	m := vm.MustMachine(cfg)
	loader, err := m.NewVM("cache-loader", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase()
	s, err := engine.NewSession(db, loader, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Build(s, workload.SmallScale(), 7); err != nil {
		t.Fatal(err)
	}
	return db, s
}

// lookup resolves raw statement text through the cache.
func lookup(c *stmtCache, db *engine.Database, stmt string) (*optimizer.PreparedQuery, error) {
	e := c.entry(db, sql.Normalize(stmt))
	return e.pq, e.err
}

// TestPreparedCacheIdentity pins the cache-key fix: statements sharing a
// long prefix (which the old first-words key conflated) get distinct
// entries, while whitespace variants of one statement share an entry.
func TestPreparedCacheIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a workload database")
	}
	db, _ := cacheDB(t)
	c := newStmtCache()
	const eq = "SELECT o_totalprice FROM orders WHERE o_orderkey = 4242"
	const lt = "SELECT o_totalprice FROM orders WHERE o_orderkey < 4242"

	missBefore := mPreparedMiss.Value()
	pqEq, err := lookup(c, db, eq)
	if err != nil {
		t.Fatal(err)
	}
	pqLt, err := lookup(c, db, lt)
	if err != nil {
		t.Fatal(err)
	}
	if pqEq == pqLt {
		t.Fatal("prefix-sharing statements share one cache entry")
	}
	if got := mPreparedMiss.Value() - missBefore; got != 2 {
		t.Errorf("want 2 cache misses, got %d", got)
	}

	p := optimizer.DefaultParams()
	plEq, err := pqEq.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	plLt, err := pqLt.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if plEq.TotalCost() == plLt.TotalCost() {
		t.Errorf("point and range lookup cost identically (%v); cache entries conflated?", plEq.TotalCost())
	}

	hitBefore := mPreparedHit.Value()
	pqWS, err := lookup(c, db, "SELECT  o_totalprice\n\tFROM orders  WHERE o_orderkey = 4242 ;")
	if err != nil {
		t.Fatal(err)
	}
	if pqWS != pqEq {
		t.Error("whitespace variant missed the cache")
	}
	if got := mPreparedHit.Value() - hitBefore; got != 1 {
		t.Errorf("want 1 cache hit, got %d", got)
	}
}

// TestPreparedCacheInvalidation: refreshed statistics (ANALYZE) and DML
// bump the catalog version, so the cache re-prepares instead of serving
// plans built from stale statistics.
func TestPreparedCacheInvalidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a workload database")
	}
	db, s := cacheDB(t)
	c := newStmtCache()
	const q = "SELECT count(*) FROM orders"

	pq1, err := lookup(c, db, q)
	if err != nil {
		t.Fatal(err)
	}
	v1 := db.Catalog.Version()
	if _, err := s.Exec("ANALYZE"); err != nil {
		t.Fatal(err)
	}
	if db.Catalog.Version() == v1 {
		t.Fatal("ANALYZE did not bump the catalog version")
	}
	pq2, err := lookup(c, db, q)
	if err != nil {
		t.Fatal(err)
	}
	if pq2 == pq1 {
		t.Error("cache served a pre-ANALYZE prepared query")
	}
	pq3, err := lookup(c, db, q)
	if err != nil {
		t.Fatal(err)
	}
	if pq3 != pq2 {
		t.Error("repeat lookup at an unchanged version missed the cache")
	}

	// No atom of the old catalog version is served after ANALYZE or CREATE
	// INDEX: the what-if model's cost follows the catalog at once, and
	// equals the cold path's on the new one.
	g := flipGrid(t)
	memo := &WhatIfModel{Grid: g}
	cold := &WhatIfModel{Grid: g, NoPrepare: true}
	w := &WorkloadSpec{Name: "inv", DB: db, Statements: []string{
		"SELECT count(*) FROM lineitem WHERE l_commitdate < DATE '1992-03-01'",
		"SELECT l_orderkey FROM lineitem WHERE l_commitdate < DATE '1992-03-01'",
	}}
	view := w.WithObjective(3, 0.5)
	ctx := context.Background()
	sweep := func(when string) []float64 {
		t.Helper()
		var out []float64
		for _, sh := range g.Allocations() {
			want, err := cold.Cost(ctx, w, sh)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []*WorkloadSpec{w, view, w} {
				got, err := memo.Cost(ctx, spec, sh)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s, alloc %v: memoized cost %v, cold cost %v", when, sh, got, want)
				}
			}
			out = append(out, want)
		}
		return out
	}
	before := sweep("before DDL")
	evicted, missed := mAtomEvict.Value(), mAtomMiss.Value()
	if _, err := s.Exec("CREATE INDEX lineitem_commitdate ON lineitem (l_commitdate)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("ANALYZE"); err != nil {
		t.Fatal(err)
	}
	after := sweep("after CREATE INDEX + ANALYZE")
	same := true
	for i := range before {
		same = same && before[i] == after[i]
	}
	if same {
		t.Error("the new index changed no cost; the check cannot tell old atoms from new")
	}
	if mAtomEvict.Value() == evicted {
		t.Error("the old catalog version's atoms were not dropped")
	}
	if got, want := mAtomMiss.Value()-missed, int64(2*len(before)); got != want {
		t.Errorf("after the catalog change %d statement pricings reached the optimizer, want %d (each statement once per allocation)", got, want)
	}

	// DML changes rows, not the statistics or schema a plan reads: the
	// version stays, the prepared statements and their atoms stay, and the
	// memoized cost still equals the cold path's.
	v2 := db.Catalog.Version()
	for _, dml := range []string{
		"INSERT INTO orders VALUES (999999, 1, 'O', 1.0, DATE '1998-01-01', 'LOW', 'late insert')",
		"UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_commitdate < DATE '1992-03-01'",
		"DELETE FROM orders WHERE o_orderkey = 999999",
	} {
		if _, err := s.Exec(dml); err != nil {
			t.Fatal(err)
		}
	}
	if db.Catalog.Version() != v2 {
		t.Error("DML bumped the catalog version")
	}
	missed = mAtomMiss.Value()
	sweep("after DML")
	if got := mAtomMiss.Value() - missed; got != 0 {
		t.Errorf("after DML %d statement pricings reached the optimizer, want 0", got)
	}
}

// flipGrid is a 2×2×2 calibration grid whose corners differ enough to
// flip plans.
func flipGrid(t testing.TB) *calibration.Grid {
	t.Helper()
	axes := []float64{0.25, 1.0}
	points := make([]optimizer.Params, 0, 8)
	for _, cpu := range axes {
		for _, mem := range axes {
			for _, io := range axes {
				p := optimizer.DefaultParams()
				p.RandomPageCost = 1 + 3/io
				p.CPUTupleCost = 0.01 * io / cpu
				p.CPUOperatorCost = 0.0025 * io / cpu
				p.EffectiveCacheSizePages = int64(8192 * mem)
				p.WorkMemBytes = int64(float64(8<<20) * mem)
				p.TimePerSeqPage = 1e-4 / io
				p.Overlap = 0.3
				points = append(points, p)
			}
		}
	}
	g, err := calibration.NewGrid(axes, axes, axes, points)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWhatIfModelPreparedEquivalence: the memoized model and the cold
// (NoPrepare) model must return bit-identical costs for every workload
// at every allocation of a plan-flipping parameter grid.
func TestWhatIfModelPreparedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a workload database")
	}
	db, _ := cacheDB(t)
	g := flipGrid(t)
	w := &WorkloadSpec{
		Name:       "w",
		Statements: append(workload.Repeat("a", workload.Query("Q4"), 2).Statements, workload.Query("QPOINT")),
		DB:         db,
	}
	memo := &WhatIfModel{Grid: g}
	cold := &WhatIfModel{Grid: g, NoPrepare: true}
	ctx := context.Background()
	// Off-lattice allocations exercise interpolation too.
	allocs := append(g.Allocations(), vm.Shares{CPU: 0.6, Memory: 0.4, IO: 0.8})
	for _, sh := range allocs {
		want, err := cold.Cost(ctx, w, sh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := memo.Cost(ctx, w, sh)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("alloc %v: memoized cost %v, cold cost %v", sh, got, want)
		}
	}
	// Second sweep: everything is now served from the caches; results
	// must not drift.
	for _, sh := range allocs {
		want, err := cold.Cost(ctx, w, sh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := memo.Cost(ctx, w, sh)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("alloc %v (warm): memoized cost %v, cold cost %v", sh, got, want)
		}
	}
}
