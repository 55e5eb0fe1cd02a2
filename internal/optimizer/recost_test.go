package optimizer

import (
	"strings"
	"sync"
	"testing"

	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
)

// recostQueries spans every enumeration path the re-costing fast path
// must replay faithfully: access-path choices, DP join ordering with
// method and build-side choices, the fixed-tree outer-join planner, the
// post-join pipeline, and (non-replayable) derived tables.
var recostQueries = []struct {
	name string
	src  string
}{
	{"point", `SELECT o_total FROM orders WHERE o_orderkey = 42`},
	{"range", `SELECT o_total FROM orders WHERE o_orderkey >= 100 AND o_orderkey < 2000`},
	{"join2", `SELECT c_name, o_total FROM customer, orders
		WHERE c_custkey = o_custkey AND o_total > 500`},
	{"join3", `SELECT c_mktsegment, count(*) FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_quantity > 25
		GROUP BY c_mktsegment ORDER BY 1`},
	{"outer", `SELECT c_custkey, count(o_orderkey) FROM customer
		LEFT OUTER JOIN orders ON c_custkey = o_custkey
		GROUP BY c_custkey`},
	{"toplimit", `SELECT o_orderkey, o_total FROM orders
		WHERE o_custkey < 100 ORDER BY o_total LIMIT 10`},
	{"derived", `SELECT c_count, count(*) FROM
		(SELECT o_custkey, count(*) AS c_count FROM orders GROUP BY o_custkey) oc
		GROUP BY c_count`},
	// LIMIT with nothing blocking below it: every choice point also
	// resolves a winner under the tuple fraction, and the join cells keep
	// two trees. The last is the control — the Sort needs every row, so
	// the fraction is 1.
	{"limit_range", `SELECT o_orderkey, o_total FROM orders WHERE o_orderkey >= 2500 LIMIT 10`},
	{"limit_join", `SELECT o_orderkey, l_quantity FROM orders, lineitem
		WHERE o_orderkey = l_orderkey AND o_orderkey >= 2500 LIMIT 5`},
	{"limit_distinct", `SELECT DISTINCT o_custkey FROM orders WHERE o_orderkey >= 1000 LIMIT 3`},
	{"limit_sorted_join", `SELECT o_orderkey, l_quantity FROM orders, lineitem
		WHERE o_orderkey = l_orderkey AND o_orderkey >= 2500 ORDER BY l_quantity LIMIT 5`},
}

// recostLattice is a parameter lattice wide enough to flip access paths
// (random-page cost, cache size), join methods and build sides (CPU
// costs, work_mem), and the seconds conversion (time-per-page, overlap).
func recostLattice() []Params {
	var out []Params
	for _, rpc := range []float64{1.05, 4, 40} {
		for _, cpuScale := range []float64{0.2, 1, 8} {
			for _, cache := range []int64{64, 4096, 1 << 20} {
				for _, workMem := range []int64{32 << 10, 4 << 20} {
					for _, tpp := range []struct{ t, ov float64 }{{0, 0}, {2e-4, 0.7}} {
						p := DefaultParams()
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

func prepareFor(t testing.TB, src string) *PreparedQuery {
	t.Helper()
	cat := fixture(t)
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := plan.Bind(sel, cat)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return Prepare(q)
}

// TestRecostMatchesOptimize is the correctness bar of the fast path:
// for every query and every lattice point, the prepared query's plan
// must match a from-scratch enumeration bit for bit — same total cost,
// same estimated seconds, same Explain text.
func TestRecostMatchesOptimize(t *testing.T) {
	lattice := recostLattice()
	for _, tc := range recostQueries {
		t.Run(tc.name, func(t *testing.T) {
			pq := prepareFor(t, tc.src)
			fastBefore, fullBefore := mRecostFast.Value(), mRecostFull.Value()
			for i, p := range lattice {
				cold, err := Optimize(pq.Query(), p)
				if err != nil {
					t.Fatalf("optimize [%d]: %v", i, err)
				}
				fast, err := pq.Optimize(p)
				if err != nil {
					t.Fatalf("recost [%d]: %v", i, err)
				}
				if got, want := fast.TotalCost(), cold.TotalCost(); got != want {
					t.Fatalf("lattice[%d]: recost total %v, optimize total %v", i, got, want)
				}
				if got, want := fast.EstimatedSeconds(), cold.EstimatedSeconds(); got != want {
					t.Fatalf("lattice[%d]: recost seconds %v, optimize seconds %v", i, got, want)
				}
				if got, want := fast.Explain(), cold.Explain(); got != want {
					t.Fatalf("lattice[%d]: plans diverge:\nrecost:\n%s\noptimize:\n%s", i, got, want)
				}
				fastNodes, coldNodes := fast.CostBreakdown(), cold.CostBreakdown()
				for k := range coldNodes {
					f, c := fastNodes[k], coldNodes[k]
					if f.Name != c.Name || f.Depth != c.Depth || f.Rows != c.Rows || f.Cost != c.Cost {
						t.Fatalf("lattice[%d] node %d: recost %s %v rows=%v, optimize %s %v rows=%v",
							i, k, f.Name, f.Cost, f.Rows, c.Name, c.Cost, c.Rows)
					}
				}
			}
			fast := mRecostFast.Value() - fastBefore
			full := mRecostFull.Value() - fullBefore
			if fast+full != int64(len(lattice)) {
				t.Errorf("counters: fast %d + full %d != %d prepared optimizations", fast, full, len(lattice))
			}
			if tc.name == "derived" {
				if fast != 0 {
					t.Errorf("derived-table query took the fast path %d times; must always re-enumerate", fast)
				}
			} else if fast == 0 {
				t.Errorf("no lattice point took the fast path (full=%d); replay never engaged", full)
			} else if strings.HasPrefix(tc.name, "limit_") && fast <= full {
				t.Errorf("fast path %d <= full enumerations %d: replay must still dominate under a tuple fraction", fast, full)
			}
		})
	}
}

// TestRecostRepeatedParams exercises the tier-1 shortcut: identical
// plan-shape parameters must reuse the recorded tree outright, and a
// seconds-only change (TimePerSeqPage/Overlap) must too.
func TestRecostRepeatedParams(t *testing.T) {
	pq := prepareFor(t, recostQueries[3].src) // join3
	p := DefaultParams()
	if _, err := pq.Optimize(p); err != nil {
		t.Fatal(err)
	}
	before := mRecostFast.Value()
	for i := 0; i < 3; i++ {
		if _, err := pq.Optimize(p); err != nil {
			t.Fatal(err)
		}
	}
	secondsOnly := p
	secondsOnly.TimePerSeqPage = 5e-4
	secondsOnly.Overlap = 0.9
	cold, err := Optimize(pq.Query(), secondsOnly)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := pq.Optimize(secondsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if fast.EstimatedSeconds() != cold.EstimatedSeconds() {
		t.Errorf("seconds-only change: recost %v, optimize %v", fast.EstimatedSeconds(), cold.EstimatedSeconds())
	}
	if got := mRecostFast.Value() - before; got != 4 {
		t.Errorf("tier-1 shortcut: want 4 fast re-costs, got %d", got)
	}
}

// TestPlanRecost covers the Plan-level entry point: a plan from a
// PreparedQuery re-costs through the shared memo; a plan from the plain
// Optimize entry point falls back to a full optimization — both must
// agree with from-scratch enumeration.
func TestPlanRecost(t *testing.T) {
	pq := prepareFor(t, recostQueries[2].src) // join2
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.RandomPageCost = 1.05
	p2.EffectiveCacheSizePages = 1 << 20

	prepared, err := pq.Optimize(p1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Optimize(pq.Query(), p1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Optimize(pq.Query(), p2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*Plan{prepared, plain} {
		re, err := pl.Recost(p2)
		if err != nil {
			t.Fatal(err)
		}
		if re.TotalCost() != want.TotalCost() || re.Explain() != want.Explain() {
			t.Errorf("Recost diverges from Optimize:\n%s\nvs\n%s", re.Explain(), want.Explain())
		}
	}
}

// TestRecostParallel hammers one shared PreparedQuery from many
// goroutines, each walking the lattice from a different offset, and
// checks every result against a serially computed expectation. Run with
// -race this doubles as the concurrency-safety proof for the shared
// plan-space memo and the atomic enumeration snapshot.
func TestRecostParallel(t *testing.T) {
	pq := prepareFor(t, recostQueries[3].src) // join3
	lattice := recostLattice()
	want := make([]float64, len(lattice))
	for i, p := range lattice {
		cold, err := Optimize(pq.Query(), p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cold.TotalCost()
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range lattice {
				i := (k + w*len(lattice)/workers) % len(lattice)
				pl, err := pq.Optimize(lattice[i])
				if err != nil {
					errs[w] = err
					return
				}
				if pl.TotalCost() != want[i] {
					t.Errorf("worker %d lattice[%d]: got %v, want %v", w, i, pl.TotalCost(), want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecostAllocs pins down the perf win structurally: re-costing a
// prepared query must allocate far less than what the pre-memoization
// model paid per what-if call — parse, bind, and full enumeration.
// Alternating two plan-shape-different parameter vectors forces the
// tier-2 replay (never the tier-1 pointer reuse) on every iteration.
func TestRecostAllocs(t *testing.T) {
	cat := fixture(t)
	src := recostQueries[3].src // join3
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.Bind(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	pq := Prepare(q)
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.RandomPageCost = 1.05
	for _, p := range []Params{p1, p2} {
		if _, err := pq.Optimize(p); err != nil {
			t.Fatal(err)
		}
	}
	flip := false
	replayAllocs := testing.AllocsPerRun(50, func() {
		flip = !flip
		p := p1
		if flip {
			p = p2
		}
		if _, err := pq.Optimize(p); err != nil {
			panic(err)
		}
	})
	flip = false
	coldAllocs := testing.AllocsPerRun(50, func() {
		flip = !flip
		p := p1
		if flip {
			p = p2
		}
		sel, err := sql.ParseSelect(src)
		if err != nil {
			panic(err)
		}
		q, err := plan.Bind(sel, cat)
		if err != nil {
			panic(err)
		}
		if _, err := Optimize(q, p); err != nil {
			panic(err)
		}
	})
	if replayAllocs >= coldAllocs/2 {
		t.Errorf("replay allocates %.0f allocs/op vs cold %.0f (parse+bind+enumerate); want < half", replayAllocs, coldAllocs)
	}
	// Tier 1 — re-costing under the very same plan-shape parameters —
	// reuses the recorded tree and allocates O(1).
	tier1Allocs := testing.AllocsPerRun(50, func() {
		if _, err := pq.Optimize(p1); err != nil {
			panic(err)
		}
	})
	if tier1Allocs > 4 {
		t.Errorf("tier-1 re-cost allocates %.0f allocs/op; want O(1)", tier1Allocs)
	}
}
