package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

func testSchema() Schema {
	return Schema{Cols: []Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "price", Kind: types.KindFloat},
		{Name: "name", Kind: types.KindString},
		{Name: "shipdate", Kind: types.KindDate},
	}}
}

func TestCreateAndLookupTable(t *testing.T) {
	c := New()
	d := storage.NewDiskManager()
	tbl, err := c.CreateTable(d, "orders", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Table("ORDERS") // case-insensitive
	if err != nil || got != tbl {
		t.Fatalf("Table lookup: %v, %v", got, err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := c.CreateTable(d, "Orders", testSchema()); err == nil {
		t.Error("duplicate table should error")
	}
	if _, err := c.CreateTable(d, "empty", Schema{}); err == nil {
		t.Error("empty schema should error")
	}
	dup := Schema{Cols: []Column{{Name: "a", Kind: types.KindInt}, {Name: "A", Kind: types.KindInt}}}
	if _, err := c.CreateTable(d, "dup", dup); err == nil {
		t.Error("duplicate column should error")
	}
}

func TestTablesSorted(t *testing.T) {
	c := New()
	d := storage.NewDiskManager()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.CreateTable(d, n, testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Tables()
	if len(ts) != 3 || ts[0].Name != "alpha" || ts[1].Name != "mid" || ts[2].Name != "zeta" {
		t.Errorf("Tables() order wrong: %v", names(ts))
	}
}

func names(ts []*Table) []string {
	var out []string
	for _, t := range ts {
		out = append(out, t.Name)
	}
	return out
}

func TestSchemaColIndex(t *testing.T) {
	s := testSchema()
	if s.ColIndex("PRICE") != 1 {
		t.Error("case-insensitive lookup failed")
	}
	if s.ColIndex("missing") != -1 {
		t.Error("missing column should be -1")
	}
}

func loadRows(t *testing.T, pg storage.Pager, tbl *Table, n int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < n; i++ {
		tup := storage.Tuple{
			types.NewInt(int64(i)),
			types.NewFloat(rng.Float64() * 100),
			types.NewString(fmt.Sprintf("name-%d", i%10)),
			types.NewDate(int64(9000 + rng.Intn(1000))),
		}
		if i%17 == 0 {
			tup[1] = types.Null
		}
		if _, err := tbl.Heap.Insert(pg, tup); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateIndexAndSearch(t *testing.T) {
	c := New()
	d := storage.NewDiskManager()
	pg := storage.NewDirectPager(d)
	tbl, _ := c.CreateTable(d, "t", testSchema())
	loadRows(t, pg, tbl, 500, rand.New(rand.NewSource(1)))

	ix, err := c.CreateIndex(d, pg, "t_id", "t", "id")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.IndexOn(0) != ix {
		t.Error("IndexOn(0) should find the index")
	}
	if tbl.IndexOn(1) != nil {
		t.Error("IndexOn(1) should be nil")
	}
	tids, err := ix.Tree.Search(pg, 123)
	if err != nil || len(tids) != 1 {
		t.Fatalf("index search: %v, %v", tids, err)
	}
	tup, err := tbl.Heap.GetAt(pg, tids[0], storage.RandHint)
	if err != nil || tup[0].I != 123 {
		t.Fatalf("heap fetch through index: %v, %v", tup, err)
	}

	if _, err := c.CreateIndex(d, pg, "t_id", "t", "id"); err == nil {
		t.Error("duplicate index name should error")
	}
	if _, err := c.CreateIndex(d, pg, "x", "t", "name"); err == nil {
		t.Error("string index should be rejected")
	}
	if _, err := c.CreateIndex(d, pg, "x", "t", "missing"); err == nil {
		t.Error("missing column should error")
	}
	if _, err := c.CreateIndex(d, pg, "x", "nope", "id"); err == nil {
		t.Error("missing table should error")
	}
	if _, err := c.CreateIndex(d, pg, "t_date", "t", "shipdate"); err != nil {
		t.Errorf("date index should be allowed: %v", err)
	}
	if pg.PinnedCount() != 0 {
		t.Errorf("%d pages pinned", pg.PinnedCount())
	}
}

func TestAnalyzeBasicStats(t *testing.T) {
	c := New()
	d := storage.NewDiskManager()
	pg := storage.NewDirectPager(d)
	tbl, _ := c.CreateTable(d, "t", testSchema())
	const n = 1000
	loadRows(t, pg, tbl, n, rand.New(rand.NewSource(2)))
	if _, err := c.CreateIndex(d, pg, "t_id", "t", "id"); err != nil {
		t.Fatal(err)
	}

	if err := Analyze(pg, tbl); err != nil {
		t.Fatal(err)
	}
	st := tbl.Stats
	if st == nil {
		t.Fatal("stats not set")
	}
	if st.NumRows != n {
		t.Errorf("NumRows = %d, want %d", st.NumRows, n)
	}
	if st.NumPages < 1 {
		t.Error("NumPages should be positive")
	}
	if st.AvgTupleBytes <= 0 {
		t.Error("AvgTupleBytes should be positive")
	}

	id := st.Cols[0]
	if id.NullFrac != 0 {
		t.Errorf("id null frac = %g", id.NullFrac)
	}
	if id.NDistinct != n {
		t.Errorf("id ndistinct = %g, want %d", id.NDistinct, n)
	}
	if !id.HasRange || id.Min != 0 || id.Max != n-1 {
		t.Errorf("id range = [%g, %g]", id.Min, id.Max)
	}
	if len(id.MCVs) != 0 {
		t.Errorf("unique column should have no MCVs, got %d", len(id.MCVs))
	}
	if len(id.Histogram) < 2 {
		t.Error("id should have a histogram")
	}

	price := st.Cols[1]
	wantNullFrac := float64((n+16)/17) / n
	if math.Abs(price.NullFrac-wantNullFrac) > 0.001 {
		t.Errorf("price null frac = %g, want %g", price.NullFrac, wantNullFrac)
	}

	name := st.Cols[2]
	if name.NDistinct != 10 {
		t.Errorf("name ndistinct = %g, want 10", name.NDistinct)
	}
	if len(name.MCVs) == 0 {
		// 10 values each at 10% frequency: all qualify as common.
		t.Log("no MCVs for uniform low-cardinality column (acceptable)")
	}
	if name.AvgWidth < 5 || name.AvgWidth > 10 {
		t.Errorf("name avg width = %g", name.AvgWidth)
	}

	ix := tbl.Indexes[0]
	if ix.Stats == nil {
		t.Fatal("index stats not set")
	}
	if ix.Stats.NumEntries != n {
		t.Errorf("index entries = %d, want %d", ix.Stats.NumEntries, n)
	}
	// id column was loaded in ascending order: perfectly correlated.
	if ix.Stats.Correlation < 0.999 {
		t.Errorf("id correlation = %g, want ~1", ix.Stats.Correlation)
	}
	if pg.PinnedCount() != 0 {
		t.Errorf("%d pages pinned", pg.PinnedCount())
	}
}

func TestAnalyzeEmptyTable(t *testing.T) {
	c := New()
	d := storage.NewDiskManager()
	pg := storage.NewDirectPager(d)
	tbl, _ := c.CreateTable(d, "t", testSchema())
	if err := Analyze(pg, tbl); err != nil {
		t.Fatal(err)
	}
	if tbl.Stats.NumRows != 0 {
		t.Error("empty table should report 0 rows")
	}
	if tbl.Stats.Cols[0].HasRange {
		t.Error("empty column should have no range")
	}
}

func TestAnalyzeSkewedColumnGetsMCVs(t *testing.T) {
	c := New()
	d := storage.NewDiskManager()
	pg := storage.NewDirectPager(d)
	tbl, _ := c.CreateTable(d, "t", Schema{Cols: []Column{{Name: "v", Kind: types.KindInt}}})
	// 50% of rows are value 7; the rest unique.
	for i := 0; i < 1000; i++ {
		v := int64(7)
		if i%2 == 0 {
			v = int64(1000 + i)
		}
		tbl.Heap.Insert(pg, storage.Tuple{types.NewInt(v)})
	}
	if err := Analyze(pg, tbl); err != nil {
		t.Fatal(err)
	}
	cs := tbl.Stats.Cols[0]
	if len(cs.MCVs) == 0 {
		t.Fatal("skewed column should have MCVs")
	}
	if cs.MCVs[0].Key != 7 {
		t.Errorf("top MCV = %g, want 7", cs.MCVs[0].Key)
	}
	if math.Abs(cs.MCVs[0].Freq-0.5) > 0.02 {
		t.Errorf("top MCV freq = %g, want ~0.5", cs.MCVs[0].Freq)
	}
}

func TestAnalyzeReverseOrderCorrelation(t *testing.T) {
	c := New()
	d := storage.NewDiskManager()
	pg := storage.NewDirectPager(d)
	tbl, _ := c.CreateTable(d, "t", Schema{Cols: []Column{{Name: "v", Kind: types.KindInt}}})
	for i := 999; i >= 0; i-- {
		tbl.Heap.Insert(pg, storage.Tuple{types.NewInt(int64(i))})
	}
	if _, err := c.CreateIndex(d, pg, "ix", "t", "v"); err != nil {
		t.Fatal(err)
	}
	if err := Analyze(pg, tbl); err != nil {
		t.Fatal(err)
	}
	if corr := tbl.Indexes[0].Stats.Correlation; corr > -0.999 {
		t.Errorf("reverse-loaded correlation = %g, want ~-1", corr)
	}
}

func TestAnalyzeRandomOrderLowCorrelation(t *testing.T) {
	c := New()
	d := storage.NewDiskManager()
	pg := storage.NewDirectPager(d)
	tbl, _ := c.CreateTable(d, "t", Schema{Cols: []Column{{Name: "v", Kind: types.KindInt}}})
	rng := rand.New(rand.NewSource(3))
	for _, v := range rng.Perm(2000) {
		tbl.Heap.Insert(pg, storage.Tuple{types.NewInt(int64(v))})
	}
	if _, err := c.CreateIndex(d, pg, "ix", "t", "v"); err != nil {
		t.Fatal(err)
	}
	if err := Analyze(pg, tbl); err != nil {
		t.Fatal(err)
	}
	if corr := math.Abs(tbl.Indexes[0].Stats.Correlation); corr > 0.1 {
		t.Errorf("random-order correlation = %g, want ~0", corr)
	}
}

func TestHistogramIsMonotonic(t *testing.T) {
	c := New()
	d := storage.NewDiskManager()
	pg := storage.NewDirectPager(d)
	tbl, _ := c.CreateTable(d, "t", Schema{Cols: []Column{{Name: "v", Kind: types.KindFloat}}})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		tbl.Heap.Insert(pg, storage.Tuple{types.NewFloat(rng.NormFloat64())})
	}
	if err := Analyze(pg, tbl); err != nil {
		t.Fatal(err)
	}
	h := tbl.Stats.Cols[0].Histogram
	if len(h) < 10 {
		t.Fatalf("histogram too small: %d bounds", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i] < h[i-1] {
			t.Fatalf("histogram bounds not sorted at %d", i)
		}
	}
	if h[0] != tbl.Stats.Cols[0].Min || h[len(h)-1] != tbl.Stats.Cols[0].Max {
		t.Error("histogram should span [min, max]")
	}
}

func TestCorrelationHelper(t *testing.T) {
	if c := correlation([]float64{1, 2, 3, 4}); c != 1 {
		t.Errorf("ascending correlation = %g", c)
	}
	if c := correlation([]float64{4, 3, 2, 1}); c != -1 {
		t.Errorf("descending correlation = %g", c)
	}
	if c := correlation([]float64{5, 5, 5}); c != 1 {
		t.Errorf("constant correlation = %g (defined as clustered)", c)
	}
	if c := correlation([]float64{1}); c != 1 {
		t.Errorf("single value correlation = %g", c)
	}
}
