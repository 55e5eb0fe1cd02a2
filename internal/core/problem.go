// Package core implements the paper's primary contribution: the
// virtualization design problem. Given N database workloads that will run
// in N virtual machines on one physical machine, choose the resource-share
// matrix R (a column of CPU/memory/I-O shares per workload, each resource
// summing to 1) that minimizes the total predicted cost
//
//	Σ_i Cost(W_i, R_i)
//
// subject to r_ij ≥ 0 and Σ_i r_ij = 1 for every resource j.
//
// The package provides the problem formulation, two cost models (the
// paper's calibrated what-if optimizer model and a measured oracle), a
// workload-spec interner (cost identity by content), and three search
// algorithms over the discretized share simplex (exhaustive, dynamic
// programming, greedy), plus the paper's Section 7 extensions:
// weighted/SLO objectives and an online reconfiguration controller.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbvirt/internal/engine"
	"dbvirt/internal/memo"
	"dbvirt/internal/obs"
	"dbvirt/internal/sql"
	"dbvirt/internal/vm"
)

// Always-on cost-cache metrics (see internal/obs): one atomic update per
// cache lookup. By construction mCacheMiss equals the sum of
// Result.Evaluations over all solves in the process.
var (
	mCacheHit     = obs.Global.Counter("core.cache.hit")
	mCacheMiss    = obs.Global.Counter("core.cache.miss")
	mCacheInWait  = obs.Global.Counter("core.cache.inflight_wait")
	mSolveCount   = obs.Global.Counter("core.solve.count")
	mWhatIfCalls  = obs.Global.Counter("core.whatif.cost_calls")
	hEvalSeconds  = obs.Global.Histogram("core.eval.seconds")
	hSolveSeconds = obs.Global.Histogram("core.solve.seconds")
)

// WorkloadSpec is one workload W_i: a sequence of SQL statements against
// a database, plus objective parameters.
type WorkloadSpec struct {
	Name       string
	Statements []string
	// DB is the workload's database (loaded and analyzed).
	DB *engine.Database
	// Weight scales this workload's cost in the objective (default 1).
	Weight float64
	// SLOSeconds, if positive, is a latency target; cost above it incurs
	// the problem's SLO penalty (a Section 7 extension).
	SLOSeconds float64

	// base, when set, is the spec this one is a view of (WithObjective):
	// everything cached about the statements lives there.
	base      *WorkloadSpec
	normOnce  sync.Once
	normStmts []string
	handles   atomic.Pointer[stmtHandles] // WhatIfModel's resolved statements
	keyOnce   sync.Once
	key       string
}

// WithObjective returns a view of w under another weight and SLO. Weight
// and SLO enter the objective, never the cost: the view has w's name,
// statements and database and shares what w caches about them —
// normalized statements and prepared handles — so a tenant that re-weights
// a workload prices nothing again. The view's Statements alias w's.
func (w *WorkloadSpec) WithObjective(weight, sloSeconds float64) *WorkloadSpec {
	return &WorkloadSpec{Name: w.Name, Statements: w.Statements, DB: w.DB,
		Weight: weight, SLOSeconds: sloSeconds, base: w.Base()}
}

// Base returns the spec w is a view of, or w itself: the cost identity,
// equal for specs that price identically whatever their objectives. For
// specs from Intern it is identity by content.
func (w *WorkloadSpec) Base() *WorkloadSpec {
	if w.base != nil {
		return w.base
	}
	return w
}

// specGeneration bounds each database's interner: two generations of
// this many specs.
const specGeneration = 512

// interner maps the hash of a statement list to the one spec that runs it
// against one database. It lives on that database (engine.Database.Specs):
// a process-wide table would keep every database it saw alive.
type interner struct {
	mu  sync.Mutex
	gen memo.Gen[uint64, *WorkloadSpec]
}

// Intern returns the process's spec for the workload running stmts, as
// given, against db: the cost identity is the content, whoever builds the
// spec, so everything cached per spec is shared. The first caller's name
// is the spec's label; weight and SLO are views (WithObjective). A new
// spec holds a copy of stmts, so the caller keeps its slice. A spec the
// bounded table evicted comes back as a new pointer that prices
// identically; the rare list whose hash collides with a resident one, and
// a nil db, get an un-interned spec.
func Intern(name string, db *engine.Database, stmts []string) *WorkloadSpec {
	if db == nil {
		return &WorkloadSpec{Name: name, Statements: slices.Clone(stmts)}
	}
	in, _ := db.Specs.Load().(*interner)
	if in == nil {
		db.Specs.CompareAndSwap(nil, &interner{gen: memo.Gen[uint64, *WorkloadSpec]{Cap: specGeneration}})
		in = db.Specs.Load().(*interner)
	}
	return in.intern(name, db, stmts)
}

func (in *interner) intern(name string, db *engine.Database, stmts []string) *WorkloadSpec {
	h := StatementsHash(stmts)
	in.mu.Lock()
	defer in.mu.Unlock()
	sp, ok := in.gen.Get(h)
	if !ok || !slices.Equal(sp.Statements, stmts) {
		sp = &WorkloadSpec{Name: name, Statements: slices.Clone(stmts), DB: db}
		if !ok {
			in.gen.Put(h, sp)
		}
	}
	return sp
}

// StatementsHash is a deterministic 64-bit hash (FNV-1a) of a statement
// list, the content half of Intern's key. A run of one statement — the
// paper's N copies of a query — reads its text once.
func StatementsHash(stmts []string) uint64 {
	h := uint64(fnvOffset)
	for i, s := range stmts {
		if i > 0 && s == stmts[i-1] {
			h = (h ^ 0xfe) * fnvPrime
		} else {
			h = hashString(h, s)
		}
		h = (h ^ 0xff) * fnvPrime // 0xfe and 0xff are no UTF-8 bytes
	}
	return h
}

// NormalizedStatements returns the spec's statements in sql.Normalize
// form, computed once per cost identity — the identity stream fed into
// per-tenant workload sketches and the what-if model's lookup keys.
func (w *WorkloadSpec) NormalizedStatements() []string {
	w = w.Base()
	w.normOnce.Do(func() {
		w.normStmts = make([]string, len(w.Statements))
		for i, s := range w.Statements {
			w.normStmts[i] = sql.Normalize(s)
		}
	})
	return w.normStmts
}

// PricingKey returns the spec's pricing identity, computed once per spec:
// name, weight and SLO. Specs with equal keys MUST price identically under
// a cost model (no caller gives two contents over one database one
// name); as a multiset it keys the fleet solver's machine memo, where
// weight and SLO do shape the result. The fields it reads must not change
// after the first call.
func (w *WorkloadSpec) PricingKey() string {
	w.keyOnce.Do(func() {
		w.key = fmt.Sprintf("%s|w=%.9f|slo=%.9f", w.Name, w.Weight, w.SLOSeconds)
	})
	return w.key
}

func (w *WorkloadSpec) weight() float64 {
	if w.Weight <= 0 {
		return 1
	}
	return w.Weight
}

// Allocation assigns resource shares to each workload: the columns R_i of
// the paper's matrix R.
type Allocation []vm.Shares

// Clone deep-copies the allocation.
func (a Allocation) Clone() Allocation { return append(Allocation(nil), a...) }

// String formats the allocation.
func (a Allocation) String() string {
	s := ""
	for i, sh := range a {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("W%d{%v}", i+1, sh)
	}
	return s
}

// EqualAllocation splits every resource evenly — the default the paper
// argues can be far from optimal.
func EqualAllocation(n int) Allocation {
	a := make(Allocation, n)
	for i := range a {
		a[i] = vm.Equal(n)
	}
	return a
}

// Objective configures the optimization target.
type Objective struct {
	// SLOPenalty multiplies each workload's cost overshoot beyond its
	// SLOSeconds. Zero disables SLO handling.
	SLOPenalty float64
}

// Problem is one virtualization design problem instance.
type Problem struct {
	Workloads []*WorkloadSpec
	// Resources lists the dimensions being optimized; the others are
	// split equally. The paper's illustrative experiment optimizes CPU
	// with memory fixed at 50/50.
	Resources []vm.Resource
	// Step is the share quantum of the search grid (e.g. 0.25 or 0.05),
	// and the smallest share any workload receives of a searched resource.
	Step      float64
	Objective Objective
	// Parallelism bounds the number of worker goroutines the solvers use
	// to evaluate candidate allocations; 0 (the default) means
	// runtime.GOMAXPROCS(0), 1 forces serial execution. Results are
	// byte-identical at every setting: workers write into pre-indexed
	// slots and ties break by allocation order, never completion order.
	Parallelism int
}

// workers resolves the configured parallelism to a worker count.
func (p *Problem) workers() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Validate checks the problem is well-formed.
func (p *Problem) Validate() error {
	n := len(p.Workloads)
	if n < 2 {
		return fmt.Errorf("core: need at least 2 workloads, got %d", n)
	}
	for i, w := range p.Workloads {
		if w.DB == nil {
			return fmt.Errorf("core: workload %d (%s) has no database", i, w.Name)
		}
		if len(w.Statements) == 0 {
			return fmt.Errorf("core: workload %d (%s) has no statements", i, w.Name)
		}
	}
	if err := ValidateShape(n, p.Resources, p.Step); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// ValidateShape checks the part of a problem that callers know before
// they resolve any workload: n workloads share the searched resources on
// a grid of the given step, each receiving at least one step. Every
// layer that accepts a problem from outside checks it up front with this,
// so a request the solver would reject is refused before it is queued.
func ValidateShape(n int, resources []vm.Resource, step float64) error {
	if len(resources) == 0 {
		return fmt.Errorf("no resources to optimize")
	}
	seen := map[vm.Resource]bool{}
	for _, r := range resources {
		if r < 0 || r >= vm.NumResources {
			return fmt.Errorf("unknown resource %v", r)
		}
		if seen[r] {
			return fmt.Errorf("duplicate resource %v", r)
		}
		seen[r] = true
	}
	if step <= 0 || step > 0.5 {
		return fmt.Errorf("step %g out of range (0, 0.5]", step)
	}
	units := 1 / step
	if math.Abs(units-math.Round(units)) > 1e-9 {
		return fmt.Errorf("step %g must divide 1 evenly", step)
	}
	if step*float64(n) > 1+1e-9 {
		return fmt.Errorf("minimum share %g infeasible for %d workloads", step, n)
	}
	return nil
}

// units returns the number of grid quanta per resource.
func (p *Problem) units() int { return int(math.Round(1 / p.Step)) }

// searched reports whether resource r is being optimized.
func (p *Problem) searched(r vm.Resource) bool {
	for _, pr := range p.Resources {
		if pr == r {
			return true
		}
	}
	return false
}

// fixedShare is the share of non-searched resources (equal split).
func (p *Problem) fixedShare() float64 { return 1 / float64(len(p.Workloads)) }

// objectiveTerm computes one workload's contribution to the objective.
func (p *Problem) objectiveTerm(w *WorkloadSpec, cost float64) float64 {
	obj := w.weight() * cost
	if w.SLOSeconds > 0 && p.Objective.SLOPenalty > 0 && cost > w.SLOSeconds {
		obj += p.Objective.SLOPenalty * w.weight() * (cost - w.SLOSeconds)
	}
	return obj
}

// CostModel predicts the cost (seconds) of running a workload under a
// resource allocation — the paper's Cost(W_i, R_i).
type CostModel interface {
	// Cost returns the predicted execution time in seconds. Implementations
	// that measure or calibrate should honor ctx cancellation; pure
	// estimators may ignore it.
	Cost(ctx context.Context, w *WorkloadSpec, shares vm.Shares) (float64, error)
	// Name identifies the model in reports.
	Name() string
}

// CostMatrix prices every workload at every allocation through the model:
// out[i][j] = Cost(specs[i], allocs[j]). It is the inner loop of the
// paper's design search, and what vdtuned's /v1/whatif answers.
func CostMatrix(ctx context.Context, model CostModel, specs []*WorkloadSpec, allocs []vm.Shares) ([][]float64, error) {
	out := make([][]float64, len(specs))
	for i, w := range specs {
		row := make([]float64, len(allocs))
		for j, sh := range allocs {
			c, err := model.Cost(ctx, w, sh)
			if err != nil {
				return nil, err
			}
			row[j] = c
		}
		out[i] = row
	}
	return out, nil
}

// Result is a solved virtualization design.
type Result struct {
	Algorithm      string
	Allocation     Allocation
	PredictedCosts []float64 // per workload, model units (seconds)
	PredictedTotal float64   // objective value
	Evaluations    int       // cost-model invocations (cache misses)
	// CacheHits counts cost-cache lookups answered without a new model
	// invocation (map hits plus joined in-flight computations). Lookups
	// and misses are both scheduling-independent, so CacheHits is too.
	CacheHits int
	// Elapsed is the wall-clock duration of the solve. It is the one
	// non-deterministic field of a Result.
	Elapsed time.Duration
	// Rounds counts the local-search improvement rounds (greedy only;
	// zero for the other algorithms).
	Rounds int
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %s (predicted %.3fs, %d evals, %d cache hits, %s)",
		r.Algorithm, r.Allocation, r.PredictedTotal, r.Evaluations,
		r.CacheHits, r.Elapsed.Round(time.Microsecond))
}

// evaluate computes the objective of an allocation, using a memoizing
// wrapper around the cost model.
func (p *Problem) evaluate(ctx context.Context, m *costCache, alloc Allocation) (total float64, costs []float64, err error) {
	costs = make([]float64, len(p.Workloads))
	total, err = p.evaluateInto(ctx, m, alloc, costs)
	if err != nil {
		return 0, nil, err
	}
	return total, costs, nil
}

// evaluateInto is evaluate writing the per-workload costs into a
// caller-owned slice (len == len(p.Workloads)) so hot loops — greedy's
// move scan — evaluate candidates without allocating.
func (p *Problem) evaluateInto(ctx context.Context, m *costCache, alloc Allocation, costs []float64) (total float64, err error) {
	for i, w := range p.Workloads {
		c, err := m.Cost(ctx, i, w, alloc[i])
		if err != nil {
			return 0, err
		}
		costs[i] = c
		total += p.objectiveTerm(w, c)
	}
	return total, nil
}

// costCache caches cost-model calls per (workload, quantized shares) for
// one solve: an unbounded memo.Memo, so a pair is evaluated exactly once
// however many workers race on it, plus the solve's own counts.
type costCache struct {
	inner CostModel
	memo  *memo.Memo[memoKey, float64]
	evals atomic.Int64 // successful model invocations
	hits  atomic.Int64 // lookups answered by an entry, completed or in flight
}

type memoKey struct {
	wi  int // workload index within the problem
	key [3]int64
}

func newCostCache(inner CostModel) *costCache {
	hash := func(k memoKey) uint64 { return hashShares(uint64(k.wi)+fnvOffset, k.key) }
	return &costCache{inner: inner, memo: memo.New[memoKey, float64](0, hash, memo.Counters{Join: mCacheInWait})}
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// hashString folds s into h (FNV-1a).
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// hashShares folds quantized shares into h (FNV-1a) for the lock shards.
func hashShares(h uint64, key [3]int64) uint64 {
	for _, v := range key {
		h = (h ^ uint64(v)) * fnvPrime
	}
	return h
}

func quantizeShares(s vm.Shares) [3]int64 {
	q := func(f float64) int64 { return int64(math.Round(f * 1e9)) }
	return [3]int64{q(s.CPU), q(s.Memory), q(s.IO)}
}

// Cost returns the memoized cost of workload wi (== p.Workloads[wi])
// under the given shares, computing it at most once per distinct key. A
// hit on a completed entry is the solvers' inner loop and allocates
// nothing: the closure does not escape Do (TestCostCacheHitAllocatesNothing).
func (m *costCache) Cost(ctx context.Context, wi int, w *WorkloadSpec, shares vm.Shares) (float64, error) {
	v, led, err := m.memo.Do(ctx, memoKey{wi: wi, key: quantizeShares(shares)}, func() (float64, error) {
		start := time.Now()
		c, err := m.inner.Cost(ctx, w, shares)
		if err == nil {
			m.evals.Add(1)
			mCacheMiss.Inc()
			hEvalSeconds.ObserveSince(start)
		}
		return c, err
	})
	if !led {
		m.hits.Add(1)
		mCacheHit.Inc()
	}
	return v, err
}

// evaluations returns the number of successful cost-model invocations
// (cache misses) so far.
func (m *costCache) evaluations() int { return int(m.evals.Load()) }

// cacheHits returns the number of lookups served from the cache
// (including joined in-flight computations).
func (m *costCache) cacheHits() int { return int(m.hits.Load()) }
