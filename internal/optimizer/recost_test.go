package optimizer

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
)

// recostQueries spans every enumeration path the re-costing fast path
// must replay faithfully: access-path choices, DP join ordering with
// method and build-side choices, the fixed-tree outer-join planner, the
// post-join pipeline, and derived tables, whose inner query replays
// through its own record.
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
	// internal/workload's Q13FULL, verbatim: the inner query is a fixed
	// outer-join tree with access-path and build-side choices of its own.
	{"q13full", `SELECT c_count, count(*) AS custdist
		FROM (SELECT c_custkey, count(o_orderkey) AS c_count
		      FROM customer LEFT OUTER JOIN orders
		        ON c_custkey = o_custkey
		       AND o_comment NOT LIKE '%special%requests%'
		      GROUP BY c_custkey) c_orders
		GROUP BY c_count
		ORDER BY custdist DESC, c_count DESC`},
	// A derived table joined to a base table: the outer DP records join
	// candidates over a leaf whose shape the inner index choice decides.
	{"derived_join", `SELECT c_name, c_count FROM customer,
		(SELECT o_custkey, count(*) AS c_count FROM orders
		 WHERE o_orderkey >= 1000 AND o_orderkey < 3000 GROUP BY o_custkey) oc
		WHERE c_custkey = o_custkey AND c_count > 2`},
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

func recostSrc(name string) string {
	for _, tc := range recostQueries {
		if tc.name == name {
			return tc.src
		}
	}
	panic("no recost query " + name)
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
	return Prepare(q, nil)
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
				cold, err := Optimize(pq.q, p)
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
			if fast == 0 {
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
	cold, err := Optimize(pq.q, secondsOnly)
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

// TestRecostDerivedReplays pins the derived-table replay rule: under a
// repeated vector and under an alternation that flips no winner, a query
// over a derived table is re-priced without enumerating — neither itself
// nor its inner query — and a vector that moves the inner shape costs one
// full enumeration of each, after which the new shape replays again.
func TestRecostDerivedReplays(t *testing.T) {
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.CPUOperatorCost *= 1.01
	flip := DefaultParams() // random reads dear and nothing cached: the inner range scan leaves its index
	flip.RandomPageCost = 40
	flip.EffectiveCacheSizePages = 64
	for _, name := range []string{"derived", "q13full", "derived_join"} {
		t.Run(name, func(t *testing.T) {
			pq := prepareFor(t, recostSrc(name))
			for _, p := range []Params{p1, p2} {
				if _, err := pq.Optimize(p); err != nil {
					t.Fatal(err)
				}
			}
			fast, full, calls := mRecostFast.Value(), mRecostFull.Value(), mOptimizeCalls.Value()
			for i := 0; i < 6; i++ {
				p := p1
				if i%3 == 2 {
					p = p2 // i-1 and i repeat p1: tier 1, the inner query is not consulted
				}
				if _, err := pq.Optimize(p); err != nil {
					t.Fatal(err)
				}
			}
			if got := mRecostFast.Value() - fast; got != 6 {
				t.Errorf("fast re-costs: got %d of 6", got)
			}
			if got := mRecostFull.Value() - full; got != 0 {
				t.Errorf("%d full enumerations on vectors that flip nothing", got)
			}
			// 6 outer calls; the inner query is asked only when the plan
			// shape parameters changed (i = 0, 2, 3, 5).
			if got := mOptimizeCalls.Value() - calls; got != 10 {
				t.Errorf("optimize calls: got %d, want 6 outer + 4 inner", got)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				if _, err := pq.Optimize(p1); err != nil {
					panic(err)
				}
			}); allocs > 4 {
				t.Errorf("tier-1 re-cost of a derived shape allocates %.0f allocs/op; want O(1)", allocs)
			}

			cold, err := Optimize(pq.q, flip)
			if err != nil {
				t.Fatal(err)
			}
			before, err := Optimize(pq.q, p1)
			if err != nil {
				t.Fatal(err)
			}
			full = mRecostFull.Value()
			got, err := pq.Optimize(flip)
			if err != nil {
				t.Fatal(err)
			}
			if got.Explain() != cold.Explain() || got.TotalCost() != cold.TotalCost() {
				t.Fatalf("after an inner flip:\n%s\nwant\n%s", got.Explain(), cold.Explain())
			}
			moved := planShape(cold) != planShape(before)
			if d := mRecostFull.Value() - full; moved && d != 1 {
				t.Errorf("plan shape moved but %d full enumerations were counted, want 1", d)
			}
			if name == "derived_join" && !moved {
				t.Errorf("the flip vector no longer moves the inner access path; pick another")
			}
		})
	}
}

// planShape renders a plan's operators and their details without costs.
func planShape(pl *Plan) string {
	var b strings.Builder
	for _, n := range pl.CostBreakdown() {
		fmt.Fprintf(&b, "%d %s %v\n", n.Depth, n.Name, n.Extra)
	}
	return b.String()
}

// TestRecostParallel hammers one shared PreparedQuery from many
// goroutines, each walking the lattice from a different offset, and
// checks every result against a serially computed expectation. Run with
// -race this doubles as the concurrency-safety proof for the shared
// plan-space memo and the atomic enumeration snapshot.
func TestRecostParallel(t *testing.T) {
	// join3, and the two derived shapes: there the workers also race on
	// the inner query's record, and an outer replay must notice an inner
	// enumeration another worker swapped in.
	for _, name := range []string{"join3", "q13full", "derived_join"} {
		t.Run(name, func(t *testing.T) { recostParallel(t, recostSrc(name)) })
	}
}

func recostParallel(t *testing.T, src string) {
	pq := prepareFor(t, src)
	lattice := recostLattice()
	want := make([]float64, len(lattice))
	for i, p := range lattice {
		cold, err := Optimize(pq.q, p)
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
	pq := Prepare(q, nil)
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
