package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dbvirt/internal/vm"
)

// TestCostCacheConcurrent hammers the memoized cost cache from many
// goroutines requesting overlapping keys and checks that (a) every
// distinct (workload, shares) pair is computed exactly once, and (b)
// every caller observes the same value. Run under -race this also
// exercises the sharded-lock and in-flight-dedup paths.
func TestCostCacheConcurrent(t *testing.T) {
	specs := fakeSpecs("a", "b", "c")
	var computed atomic.Int64
	inner := &funcModel{name: "count", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		computed.Add(1)
		return s.CPU*100 + s.Memory*10 + s.IO + float64(len(w.Name))
	}}
	cache := newCostCache(inner)

	shares := func(k int) vm.Shares {
		return vm.Shares{CPU: 0.05 * float64(k%19+1), Memory: 0.5, IO: 0.5}
	}
	const goroutines = 32
	const perG = 200
	uniqueKeys := 3 * 19 // 3 workloads x 19 distinct CPU shares

	var wg sync.WaitGroup
	results := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]float64, perG)
			for i := 0; i < perG; i++ {
				wi := (g + i) % len(specs)
				v, err := cache.Cost(context.Background(), wi, specs[wi], shares(g*7+i))
				if err != nil {
					t.Errorf("Cost: %v", err)
					return
				}
				results[g][i] = v
			}
		}(g)
	}
	wg.Wait()

	if got := computed.Load(); got != int64(uniqueKeys) {
		t.Fatalf("inner model computed %d times, want once per unique key (%d)", got, uniqueKeys)
	}
	if cache.evaluations() != uniqueKeys {
		t.Fatalf("evaluations() = %d, want %d", cache.evaluations(), uniqueKeys)
	}
	// Every goroutine must have seen the deterministic value.
	for g := range results {
		for i, v := range results[g] {
			wi := (g + i) % len(specs)
			want := inner.f(specs[wi], shares(g*7+i))
			if v != want {
				t.Fatalf("goroutine %d call %d: got %v want %v", g, i, v, want)
			}
		}
	}
}

// TestCostCacheHitAllocatesNothing: a lookup the per-solve cache answers
// from a completed entry — the solvers' inner loop — allocates nothing.
func TestCostCacheHitAllocatesNothing(t *testing.T) {
	w := fakeSpecs("a")[0]
	cache := newCostCache(&funcModel{name: "cpu", f: func(_ *WorkloadSpec, s vm.Shares) float64 { return s.CPU }})
	ctx, shares := context.Background(), vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5}
	if n := testing.AllocsPerRun(100, func() {
		if v, err := cache.Cost(ctx, 0, w, shares); v != 0.5 || err != nil {
			t.Fatalf("Cost = %v, %v", v, err)
		}
	}); n != 0 {
		t.Fatalf("a completed-entry hit allocates %v times, want 0", n)
	}
	if cache.evaluations() != 1 {
		t.Fatalf("evaluations() = %d, want 1", cache.evaluations())
	}
}

// TestExhaustiveAllocsTrackCacheEntries: an exhaustive candidate evaluates
// into its worker's scratch buffers, so a solve's allocations grow with
// the distinct (workload, shares) entries of its cost cache, not with the
// candidate count. Going from step 0.25 to 0.1 multiplies the candidates
// by 144 and the entries by 16; each new entry may allocate its memo
// bookkeeping, no candidate may allocate anything.
func TestExhaustiveAllocsTrackCacheEntries(t *testing.T) {
	specs := fakeSpecs("w0", "w1", "w2")
	model := &funcModel{name: "sum", f: func(_ *WorkloadSpec, s vm.Shares) float64 { return 1/s.CPU + 1/s.Memory }}
	type run struct {
		allocs         float64
		lookups, evals int
	}
	measure := func(step float64) run {
		p := &Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU, vm.Memory}, Step: step, Parallelism: 1}
		r, err := SolveExhaustive(context.Background(), p, model)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := SolveExhaustive(context.Background(), p, model); err != nil {
				t.Fatal(err)
			}
		})
		return run{allocs, r.Evaluations + r.CacheHits, r.Evaluations}
	}
	coarse, fine := measure(0.25), measure(0.1)
	dAllocs, dLookups, dEvals := fine.allocs-coarse.allocs, fine.lookups-coarse.lookups, fine.evals-coarse.evals
	t.Logf("step 0.25: %+v; step 0.1: %+v", coarse, fine)
	if dLookups < 5*dEvals {
		t.Fatalf("cost lookups grew by %d, entries by %d: the problem no longer separates them", dLookups, dEvals)
	}
	const perEntry = 4 // the memo's in-flight call, its channel and map growth
	if dAllocs > perEntry*float64(dEvals) {
		t.Errorf("step 0.1 allocates %.0f more than step 0.25 for %d more cache entries and %d more lookups; want <= %d per entry",
			dAllocs, dEvals, dLookups, perEntry)
	}
}

// TestExhaustiveMatchesSerialScan: with per-worker scratch candidates, the
// winner is still the first strictly-better candidate of a serial scan in
// enumeration order, on a surface whose plateaus make ties common.
func TestExhaustiveMatchesSerialScan(t *testing.T) {
	specs := fakeSpecs("w0", "w1", "w2")
	model := &funcModel{name: "plateau", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		return math.Round((1/(s.CPU+0.2)+0.5/(s.Memory+0.3))*float64(len(w.Name))*2) / 2
	}}
	p := &Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU, vm.Memory}, Step: 0.1}
	comps := compositions(len(specs), p.units(), 1)
	cache := newCostCache(model)
	var want *Result
	ties := 0
	for _, cpu := range comps {
		for _, mem := range comps {
			alloc := p.allocationFromResUnits([][]int{cpu, mem})
			total, costs, err := p.evaluate(context.Background(), cache, alloc)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case want == nil || total < want.PredictedTotal:
				want, ties = &Result{Allocation: alloc, PredictedCosts: costs, PredictedTotal: total}, 1
			case total == want.PredictedTotal:
				ties++
			}
		}
	}
	if ties < 2 {
		t.Fatalf("%d candidates share the best total; the surface must tie for the test to pin the tie-break", ties)
	}
	for _, j := range []int{1, 3} {
		p.Parallelism = j
		got, err := SolveExhaustive(context.Background(), p, model)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Allocation, want.Allocation) || !reflect.DeepEqual(got.PredictedCosts, want.PredictedCosts) || got.PredictedTotal != want.PredictedTotal {
			t.Errorf("j=%d: got %v %v %v, want %v %v %v", j, got.Allocation, got.PredictedCosts, got.PredictedTotal,
				want.Allocation, want.PredictedCosts, want.PredictedTotal)
		}
	}
}

// TestParallelSolversMatchSerial checks the headline determinism claim:
// every solver returns a byte-identical Result regardless of the worker
// count, including the Evaluations counter and tie-breaks.
func TestParallelSolversMatchSerial(t *testing.T) {
	specs := fakeSpecs("w0", "w1", "w2", "w3")
	// A bumpy deterministic cost surface with plateaus, so ties exist and
	// tie-breaking order actually matters.
	model := &funcModel{name: "bumpy", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		base := 1/(s.CPU+0.1) + 0.5/(s.IO+0.2)
		bump := math.Sin(float64(len(w.Name))*s.CPU*7) * 0.05
		return math.Round((base+bump)*8) / 8 // quantize to create plateaus
	}}
	solvers := []struct {
		name  string
		solve func(context.Context, *Problem, CostModel) (*Result, error)
	}{
		{"exhaustive", SolveExhaustive},
		{"greedy", SolveGreedy},
		{"dp", SolveDP},
	}
	for _, sv := range solvers {
		t.Run(sv.name, func(t *testing.T) {
			var results []*Result
			for _, j := range []int{1, 2, 8} {
				p := &Problem{
					Workloads:   specs,
					Resources:   []vm.Resource{vm.CPU, vm.IO},
					Step:        0.25,
					Parallelism: j,
				}
				r, err := sv.solve(context.Background(), p, model)
				if err != nil {
					t.Fatalf("j=%d: %v", j, err)
				}
				if r.Elapsed <= 0 {
					t.Fatalf("j=%d: Elapsed not recorded", j)
				}
				// Elapsed is wall clock — the one documented
				// non-deterministic field; everything else (including
				// Evaluations and CacheHits) must match bit-for-bit.
				r.Elapsed = 0
				results = append(results, r)
			}
			for i := 1; i < len(results); i++ {
				if !reflect.DeepEqual(results[0], results[i]) {
					t.Fatalf("results diverge:\n  j=1: %+v\n  run %d (j=1,2,8): %+v", results[0], i, results[i])
				}
			}
		})
	}
}

// TestSharedCostModelForwards: the deprecated wrapper calls its inner
// model on every Cost, returns that model's answer, and holds no entries.
func TestSharedCostModelForwards(t *testing.T) {
	var calls atomic.Int64
	m := NewSharedCostModel(&funcModel{name: "count", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		return float64(calls.Add(1)) * s.CPU
	}}, nil)
	w := fakeSpecs("w")[0]
	for i := 1; i <= 3; i++ {
		got, err := m.Cost(context.Background(), w, vm.Shares{CPU: 0.25, Memory: 1, IO: 1})
		if want := float64(i) * 0.25; err != nil || got != want {
			t.Fatalf("call %d: Cost = %v, %v; want %v, the inner model's answer to call %d", i, got, err, want, i)
		}
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d, want 0", m.Len())
	}
}

// TestParallelSolversPropagateErrors checks that a failing cost model
// surfaces the same (first, in candidate order) error at any parallelism.
func TestParallelSolversPropagateErrors(t *testing.T) {
	specs := fakeSpecs("a", "b")
	bad := &errModel{}
	for _, j := range []int{1, 4} {
		p := &Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU}, Step: 0.25, Parallelism: j}
		if _, err := SolveExhaustive(context.Background(), p, bad); err == nil {
			t.Fatalf("j=%d: exhaustive: want error", j)
		}
		if _, err := SolveGreedy(context.Background(), p, bad); err == nil {
			t.Fatalf("j=%d: greedy: want error", j)
		}
	}
}

type errModel struct{}

func (m *errModel) Name() string { return "err" }
func (m *errModel) Cost(_ context.Context, w *WorkloadSpec, s vm.Shares) (float64, error) {
	if s.CPU > 0.6 {
		return 0, fmt.Errorf("model failure at cpu=%g", s.CPU)
	}
	return 1 / s.CPU, nil
}

// expensiveModel burns deterministic CPU per evaluation, standing in for
// the real what-if model (whose per-evaluation cost is planning a whole
// workload). The work is pure arithmetic so results are bit-identical
// across workers.
func expensiveModel() CostModel {
	return &funcModel{name: "expensive", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		x := s.CPU + s.Memory + s.IO
		for i := 0; i < 200_000; i++ {
			x = x + math.Sqrt(float64(i%97)+x)/1e6
		}
		return 1/(s.CPU+0.05) + x*1e-9
	}}
}

// BenchmarkExhaustiveSearch measures the N=4 exhaustive grid search over
// CPU+IO at step 0.05 with an artificially expensive cost model, at
// worker counts 1 and 4. On a multi-core host j=4 should cut wall-clock
// time by ~the core count (the unique-evaluation count is identical —
// memoization dedups across candidates in both modes).
func BenchmarkExhaustiveSearch(b *testing.B) {
	specs := fakeSpecs("w0", "w1", "w2", "w3")
	model := expensiveModel()
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			p := &Problem{
				Workloads:   specs,
				Resources:   []vm.Resource{vm.CPU},
				Step:        0.05,
				Parallelism: j,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveExhaustive(context.Background(), p, model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedySearch is the same comparison for the greedy solver's
// per-round neighbor-move fan-out.
func BenchmarkGreedySearch(b *testing.B) {
	specs := fakeSpecs("w0", "w1", "w2", "w3")
	model := expensiveModel()
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			p := &Problem{
				Workloads:   specs,
				Resources:   []vm.Resource{vm.CPU, vm.IO},
				Step:        0.1,
				Parallelism: j,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveGreedy(context.Background(), p, model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
