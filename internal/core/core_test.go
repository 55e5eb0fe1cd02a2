package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
)

// funcModel wraps a cost function for fast solver tests.
type funcModel struct {
	name string
	f    func(w *WorkloadSpec, s vm.Shares) float64
}

func (m *funcModel) Name() string { return m.name }
func (m *funcModel) Cost(_ context.Context, w *WorkloadSpec, s vm.Shares) (float64, error) {
	return m.f(w, s), nil
}

// fakeSpecs builds n workload specs with dummy databases (solver tests
// never touch them, but Validate requires non-nil).
func fakeSpecs(names ...string) []*WorkloadSpec {
	var out []*WorkloadSpec
	for _, n := range names {
		out = append(out, &WorkloadSpec{
			Name:       n,
			Statements: []string{"SELECT 1 FROM t"},
			DB:         engine.NewDatabase(),
		})
	}
	return out
}

// cpuHungryModel: workload "hungry" scales 1/cpu; "flat" is insensitive.
func cpuHungryModel() CostModel {
	return &funcModel{name: "fake", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		if w.Name == "hungry" {
			return 1 / s.CPU
		}
		return 1.0
	}}
}

func cpuProblem(specs []*WorkloadSpec, step float64) *Problem {
	return &Problem{
		Workloads: specs,
		Resources: []vm.Resource{vm.CPU},
		Step:      step,
	}
}

func TestValidate(t *testing.T) {
	good := cpuProblem(fakeSpecs("a", "b"), 0.25)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Problem{
		cpuProblem(fakeSpecs("a"), 0.25),             // one workload
		{Workloads: fakeSpecs("a", "b"), Step: 0.25}, // no resources
		{Workloads: fakeSpecs("a", "b"), Resources: []vm.Resource{vm.CPU}, Step: 0},
		{Workloads: fakeSpecs("a", "b"), Resources: []vm.Resource{vm.CPU}, Step: 0.3},                 // doesn't divide 1
		{Workloads: fakeSpecs("a", "b"), Resources: []vm.Resource{vm.CPU, vm.CPU}, Step: 0.25},        // dup
		{Workloads: fakeSpecs("a", "b", "c", "d", "e"), Resources: []vm.Resource{vm.CPU}, Step: 0.25}, // min infeasible
	}
	noStmt := cpuProblem(fakeSpecs("a", "b"), 0.25)
	noStmt.Workloads[0].Statements = nil
	bad = append(bad, noStmt)
	noDB := cpuProblem(fakeSpecs("a", "b"), 0.25)
	noDB.Workloads[0].DB = nil
	bad = append(bad, noDB)
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestEqualAllocation(t *testing.T) {
	a := EqualAllocation(4)
	if len(a) != 4 || a[0].CPU != 0.25 {
		t.Errorf("equal allocation = %v", a)
	}
}

func TestCompositions(t *testing.T) {
	c := compositions(2, 4, 1)
	if len(c) != 3 { // (1,3) (2,2) (3,1)
		t.Errorf("compositions(2,4,1) = %v", c)
	}
	for _, v := range c {
		if v[0]+v[1] != 4 {
			t.Errorf("composition does not sum: %v", v)
		}
	}
	if got := compositions(3, 2, 1); len(got) != 0 {
		t.Errorf("infeasible compositions should be empty, got %v", got)
	}
	if got := compositions(3, 9, 2); len(got) != 10 {
		t.Errorf("compositions(3,9,2) = %d, want 10", len(got))
	}
}

func TestAllSolversFindCPUShift(t *testing.T) {
	specs := fakeSpecs("hungry", "flat")
	p := cpuProblem(specs, 0.25)
	model := cpuHungryModel()

	for name, solve := range map[string]func(context.Context, *Problem, CostModel) (*Result, error){
		"exhaustive": SolveExhaustive,
		"dp":         SolveDP,
		"greedy":     SolveGreedy,
	} {
		res, err := solve(context.Background(), p, model)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Optimal gives hungry the max 75% CPU (flat keeps the 25% floor).
		if math.Abs(res.Allocation[0].CPU-0.75) > 1e-9 {
			t.Errorf("%s: hungry CPU = %g, want 0.75 (%v)", name, res.Allocation[0].CPU, res.Allocation)
		}
		if math.Abs(res.Allocation[1].CPU-0.25) > 1e-9 {
			t.Errorf("%s: flat CPU = %g, want 0.25", name, res.Allocation[1].CPU)
		}
		// Non-searched resources stay equal.
		if res.Allocation[0].Memory != 0.5 || res.Allocation[0].IO != 0.5 {
			t.Errorf("%s: non-searched resources moved: %v", name, res.Allocation[0])
		}
		wantTotal := 1/0.75 + 1
		if math.Abs(res.PredictedTotal-wantTotal) > 1e-9 {
			t.Errorf("%s: total = %g, want %g", name, res.PredictedTotal, wantTotal)
		}
	}
}

func TestSolversBeatEqualShares(t *testing.T) {
	specs := fakeSpecs("hungry", "flat")
	p := cpuProblem(specs, 0.25)
	model := cpuHungryModel()
	opt, err := SolveDP(context.Background(), p, model)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := EvaluateAllocation(context.Background(), p, model, EqualAllocation(2), "equal")
	if err != nil {
		t.Fatal(err)
	}
	if opt.PredictedTotal >= eq.PredictedTotal {
		t.Errorf("optimal %g should beat equal %g", opt.PredictedTotal, eq.PredictedTotal)
	}
}

func TestDPMatchesExhaustiveOnRandomCosts(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		// Random per-workload cost tables keyed by quantized cpu share.
		costs := make([]map[int]float64, 3)
		for i := range costs {
			costs[i] = map[int]float64{}
			for u := 1; u <= 10; u++ {
				costs[i][u] = rng.Float64() * 10
			}
		}
		model := &funcModel{name: "rand", f: func(w *WorkloadSpec, s vm.Shares) float64 {
			idx := int(w.Weight) // stash index in weight... no: weight affects objective.
			_ = idx
			return 0
		}}
		specs := fakeSpecs("w0", "w1", "w2")
		model.f = func(w *WorkloadSpec, s vm.Shares) float64 {
			var idx int
			for i, sp := range specs {
				if sp == w {
					idx = i
				}
			}
			return costs[idx][int(math.Round(s.CPU*10))]
		}
		p := &Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU}, Step: 0.1}
		ex, err := SolveExhaustive(context.Background(), p, model)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := SolveDP(context.Background(), p, model)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ex.PredictedTotal-dp.PredictedTotal) > 1e-9 {
			t.Errorf("trial %d: dp %g != exhaustive %g", trial, dp.PredictedTotal, ex.PredictedTotal)
		}
	}
}

func TestGreedyOptimalOnConvexCosts(t *testing.T) {
	// Convex decreasing costs: greedy quantum-shifting reaches the global
	// optimum.
	specs := fakeSpecs("a", "b", "c")
	model := &funcModel{name: "convex", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		k := map[string]float64{"a": 4, "b": 1, "c": 0.25}[w.Name]
		return k / s.CPU
	}}
	p := &Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU}, Step: 0.05}
	g, err := SolveGreedy(context.Background(), p, model)
	if err != nil {
		t.Fatal(err)
	}
	d, err := SolveDP(context.Background(), p, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.PredictedTotal-d.PredictedTotal) > 1e-9 {
		t.Errorf("greedy %g != dp %g on convex costs", g.PredictedTotal, d.PredictedTotal)
	}
	if g.Evaluations >= d.Evaluations {
		t.Logf("note: greedy evals %d vs dp %d", g.Evaluations, d.Evaluations)
	}
}

func TestTwoResourceSearch(t *testing.T) {
	specs := fakeSpecs("cpuHog", "ioHog")
	model := &funcModel{name: "2d", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		if w.Name == "cpuHog" {
			return 1/s.CPU + 0.1/s.IO
		}
		return 0.1/s.CPU + 1/s.IO
	}}
	p := &Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU, vm.IO}, Step: 0.25}
	res, err := SolveDP(context.Background(), p, model)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation[0].CPU <= res.Allocation[1].CPU {
		t.Errorf("cpuHog should get more CPU: %v", res.Allocation)
	}
	if res.Allocation[1].IO <= res.Allocation[0].IO {
		t.Errorf("ioHog should get more IO: %v", res.Allocation)
	}
	// Shares per resource sum to 1.
	for _, r := range []vm.Resource{vm.CPU, vm.IO} {
		sum := res.Allocation[0].Get(r) + res.Allocation[1].Get(r)
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("resource %v sums to %g", r, sum)
		}
	}
}

func TestSLOPenaltyShiftsOptimum(t *testing.T) {
	// Without SLO, workload b is insensitive and gets the floor. With a
	// tight SLO on b requiring more CPU, the optimum moves.
	specs := fakeSpecs("a", "b")
	model := &funcModel{name: "slo", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		if w.Name == "a" {
			return 2 / s.CPU
		}
		return 0.5 / s.CPU
	}}
	base := &Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU}, Step: 0.25}
	res, err := SolveDP(context.Background(), base, model)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation[1].CPU != 0.25 {
		t.Fatalf("baseline should starve b: %v", res.Allocation)
	}
	// SLO: b must finish within 1s => needs cpu >= 0.5.
	specs[1].SLOSeconds = 1.0
	withSLO := &Problem{
		Workloads: specs, Resources: []vm.Resource{vm.CPU}, Step: 0.25,
		Objective: Objective{SLOPenalty: 100},
	}
	res2, err := SolveDP(context.Background(), withSLO, model)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Allocation[1].CPU < 0.5 {
		t.Errorf("SLO should push b's CPU to >= 0.5: %v", res2.Allocation)
	}
}

func TestWeightsShiftOptimum(t *testing.T) {
	specs := fakeSpecs("a", "b")
	// Symmetric costs; weight breaks the tie decisively.
	model := &funcModel{name: "w", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		return 1 / s.CPU
	}}
	specs[1].Weight = 10
	p := cpuProblem(specs, 0.25)
	res, err := SolveDP(context.Background(), p, model)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation[1].CPU <= res.Allocation[0].CPU {
		t.Errorf("weighted workload should win CPU: %v", res.Allocation)
	}
}

func TestMemoizationReducesEvaluations(t *testing.T) {
	specs := fakeSpecs("a", "b", "c")
	var calls atomic.Int64 // the solver may invoke the model from several workers
	model := &funcModel{name: "count", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		calls.Add(1)
		return 1 / s.CPU
	}}
	p := &Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU}, Step: 0.1}
	res, err := SolveExhaustive(context.Background(), p, model)
	if err != nil {
		t.Fatal(err)
	}
	// 8 distinct unit values per workload => at most 3*8 = 24 evals even
	// though the exhaustive search visits C(9,2)=36 allocations.
	if calls.Load() > 24 {
		t.Errorf("cost model called %d times, memoization broken", calls.Load())
	}
	if int64(res.Evaluations) != calls.Load() {
		t.Errorf("Evaluations = %d, calls = %d", res.Evaluations, calls.Load())
	}
}

func TestEvaluateAllocationValidates(t *testing.T) {
	specs := fakeSpecs("a", "b")
	p := cpuProblem(specs, 0.25)
	if _, err := EvaluateAllocation(context.Background(), p, cpuHungryModel(), EqualAllocation(3), "x"); err == nil {
		t.Error("wrong-length allocation should fail")
	}
}

// TestApplySharesSwapsShares: applying a re-solved allocation swaps the
// running VMs' shares when the demand flips, without transiently
// over-committing (SetShares rejects an over-commit).
func TestApplySharesSwapsShares(t *testing.T) {
	cfg := vm.DefaultMachineConfig()
	cfg.SchedOverhead = 0
	m := vm.MustMachine(cfg)
	v1, err := m.NewVM("w1", vm.Equal(2))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.NewVM("w2", vm.Equal(2))
	if err != nil {
		t.Fatal(err)
	}
	p := cpuProblem(fakeSpecs("hungry", "flat"), 0.25)
	apply := func(model CostModel) {
		t.Helper()
		res, err := SolveDP(context.Background(), p, model)
		if err != nil {
			t.Fatal(err)
		}
		if err := ApplyShares([]*vm.VM{v1, v2}, res.Allocation); err != nil {
			t.Fatal(err)
		}
	}
	apply(cpuHungryModel())
	if v1.Shares().CPU != 0.75 || v2.Shares().CPU != 0.25 {
		t.Errorf("shares after the first apply: %v %v", v1.Shares(), v2.Shares())
	}

	// Flip the demand: flat becomes hungry.
	apply(&funcModel{name: "flip", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		if w.Name == "flat" {
			return 1 / s.CPU
		}
		return 1.0
	}})
	if v1.Shares().CPU != 0.25 || v2.Shares().CPU != 0.75 {
		t.Errorf("shares after flip: %v %v", v1.Shares(), v2.Shares())
	}
}

func TestApplySharesMismatchedVMs(t *testing.T) {
	if err := ApplyShares(nil, EqualAllocation(2)); err == nil {
		t.Error("expected VM count mismatch error")
	}
}

func TestAllocationString(t *testing.T) {
	a := EqualAllocation(2)
	s := a.String()
	if s == "" {
		t.Error("empty string")
	}
	r := &Result{Algorithm: "dp", Allocation: a, PredictedTotal: 1.5}
	if r.String() == "" {
		t.Error("empty result string")
	}
}

func TestResultStringFormat(t *testing.T) {
	specs := fakeSpecs("a", "b")
	p := cpuProblem(specs, 0.25)
	res, err := SolveGreedy(context.Background(), p, cpuHungryModel())
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(res)
	if got == "" {
		t.Error("result should format")
	}
}

// TestPricingKey: the key is name|weight|slo in the shared memo's
// historical format, formatted once per spec however many goroutines ask.
func TestPricingKey(t *testing.T) {
	w := &WorkloadSpec{Name: "Q13x2", Weight: 2.5, SLOSeconds: 0.125}
	const want = "Q13x2|w=2.500000000|slo=0.125000000"
	keys := make([]string, 8)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys[i] = w.PricingKey()
		}(i)
	}
	wg.Wait()
	for _, k := range keys {
		if k != want {
			t.Fatalf("PricingKey() = %q, want %q", k, want)
		}
		if unsafe.StringData(k) != unsafe.StringData(keys[0]) {
			t.Fatal("PricingKey() formatted the key more than once")
		}
	}
	if got := (&WorkloadSpec{Name: "Q1"}).PricingKey(); got != "Q1|w=0.000000000|slo=0.000000000" {
		t.Fatalf("zero-weight key = %q", got)
	}
}
