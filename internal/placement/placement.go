// Package placement scales the paper's single-machine virtualization
// design problem to a machine fleet. The paper solves resource shares for
// N workloads consolidated onto one physical machine; production means
// thousands of tenants packed across many machines. The pipeline is the
// CoPhy move — replace brute-force enumeration with compression plus a
// compact search — applied to the allocation lattice:
//
//  1. Workload compression: tenants are clustered into a small number of
//     representative classes by a deterministic greedy-agglomerative pass
//     over workload features (normalized-statement support sketches plus a
//     predicted-cost probe summary), so a 10,000-tenant fleet costs only
//     O(classes) what-if evaluations.
//  2. Bin-packing: tenants are placed onto machines first-fit-decreasing
//     against per-machine CPU/memory/I-O capacity, refined by trying k
//     deterministic packing orders and keeping the cheapest fleet.
//  3. Per-machine solve: each machine's share matrix comes from the
//     existing single-machine solvers (SolveGreedy/SolveDP) evaluated once
//     per distinct class multiset and memoized, so repeated machine
//     configurations are cache hits and incremental re-solves touch only
//     the dirty machines.
//
// Every step is a pure, order-independent function of the tenant set and
// the configuration, so an incremental Placement.Apply (tenant arrive /
// leave / drift) is bit-identical to a from-scratch solve of the final
// tenant set — the memo only changes how fast the answer arrives, never
// what it is.
package placement

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"dbvirt/internal/core"
	"dbvirt/internal/memo"
	"dbvirt/internal/obs"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
)

// Always-on fleet metrics (see internal/obs); the placement.* rows of the
// metric catalog.
var (
	mSolveCount      = obs.Global.Counter("placement.solve.count")
	mApplyCount      = obs.Global.Counter("placement.apply.count")
	mMachineSolves   = obs.Global.Counter("placement.machine.solves")
	mMachineMemoHits = obs.Global.Counter("placement.machine.memo_hits")
	mDirtyMachines   = obs.Global.Counter("placement.dirty.machines")
	mMachinesReused  = obs.Global.Counter("placement.machines.reused")
	mNormalizeReused = obs.Global.Counter("placement.normalize.reused")
	hSolveSeconds    = obs.Global.Histogram("placement.solve.seconds")
	hApplySeconds    = obs.Global.Histogram("placement.apply.seconds")
	gTenants         = obs.Global.Gauge("placement.tenants")
	gClasses         = obs.Global.Gauge("placement.classes")
	gMachines        = obs.Global.Gauge("placement.machines")
	// mVerifyChecks counts machine shapes Verify sent through the cost
	// model; gSolveEntries is the size of the machine-solve memo that grew
	// last, mSolveEvict the solves its generation turnover dropped.
	mVerifyChecks = obs.Global.Counter("placement.verify.model_checks")
	gSolveEntries = obs.Global.Gauge("placement.solves.entries")
	mSolveEvict   = obs.Global.Counter("placement.solves.evict")
)

// solveGeneration bounds every solver-lifetime table — per-spec sketches,
// probes and features, rep ids, feature distances and machine solves — at
// two generations of this many entries. A 1000-tenant fleet converges on
// ~1400 machine shapes, so its working set never turns over; turnover
// would only recompute.
const solveGeneration = 4096

// Tenant is one fleet tenant: a workload spec plus optional telemetry.
// When Sketch or CostSummary are nil the solver derives them from the
// spec (normalized-statement sketch, starvation-probe cost vector) and
// memoizes the derivation per spec, so interned specs — as the server's
// workload registry hands out — are featurized once per fleet, not once
// per tenant. A placement featurizes a tenant when it is solved or
// arrives, and again only when a Drift event replaces it, so a Tenant
// must not change once placed.
type Tenant struct {
	Name string
	Spec *core.WorkloadSpec
	// Sketch, if non-nil, is the tenant's observed normalized-statement
	// heavy-hitter sketch (internal/telemetry top-k), e.g. from the
	// serving-side telemetry hub.
	Sketch *telemetry.TopK
	// CostSummary, if non-empty, is the tenant's observed predicted-cost
	// summary (e.g. a telemetry reservoir mean vector). Tenants whose
	// summaries differ never share a class.
	CostSummary []float64
}

// MachineCaps bounds one machine. CPU/Memory/IO are capacities in demand
// units — the tenant's predicted seconds under the matching starvation
// probe — with 0 meaning unlimited; MaxTenants bounds consolidation
// degree (the N of the per-machine design problem).
type MachineCaps struct {
	CPU        float64
	Memory     float64
	IO         float64
	MaxTenants int
}

// Config parameterizes a Solver. The zero value is usable: 4 tenants per
// machine, CPU-share search at step 1/8 (the paper's illustrative regime),
// greedy per-machine solves, 3 packing orders.
type Config struct {
	// Machine is the per-machine capacity envelope.
	Machine MachineCaps
	// Threshold is the clustering distance threshold in [0, 1): two
	// workload features merge into one class when both their sketch
	// total-variation distance and their relative cost-vector distance
	// are at or below it. 0 means the default, 0.1.
	Threshold float64
	// Step is the share quantum of each per-machine search grid.
	Step float64
	// Resources lists the per-machine dimensions being optimized; the
	// others are split equally (default CPU only, as in the paper's
	// illustrative experiment).
	Resources []vm.Resource
	// Algo selects the per-machine solver: "greedy" (default) or "dp".
	Algo string
	// Orders is the number of deterministic packing orders tried
	// (first-fit-decreasing plus Orders-1 seeded shuffles); the cheapest
	// fleet wins, ties to the lowest order index.
	Orders int
	// Parallelism bounds the workers fanned over dirty machines (and over
	// feature probes); 0 means runtime.GOMAXPROCS(0). Results are
	// identical at every setting.
	Parallelism int
	// Seed keys the packing-order shuffles.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Machine.MaxTenants == 0 {
		c.Machine.MaxTenants = 4
	}
	if c.Step == 0 {
		c.Step = 0.125
	}
	if len(c.Resources) == 0 {
		c.Resources = []vm.Resource{vm.CPU}
	}
	if c.Algo == "" {
		c.Algo = "greedy"
	}
	if c.Orders == 0 {
		c.Orders = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Threshold == 0 {
		c.Threshold = 0.1
	}
	return c
}

func (c Config) validate() error {
	if c.Machine.MaxTenants < 1 {
		return fmt.Errorf("placement: max tenants per machine %d < 1", c.Machine.MaxTenants)
	}
	if c.Machine.CPU < 0 || c.Machine.Memory < 0 || c.Machine.IO < 0 {
		return fmt.Errorf("placement: negative machine capacity")
	}
	if c.Threshold < 0 || c.Threshold >= 1 {
		return fmt.Errorf("placement: threshold %g out of range [0, 1)", c.Threshold)
	}
	if c.Algo != "greedy" && c.Algo != "dp" {
		return fmt.Errorf("placement: unknown per-machine algorithm %q", c.Algo)
	}
	if c.Orders < 1 || c.Orders > 64 {
		return fmt.Errorf("placement: orders %d out of range [1, 64]", c.Orders)
	}
	// A full machine is one per-machine design problem.
	if err := core.ValidateShape(c.Machine.MaxTenants, c.Resources, c.Step, c.Step); err != nil {
		return fmt.Errorf("placement: %w", err)
	}
	return nil
}

// Solver owns the fleet-placement memos: per-spec feature derivations
// (sketch + probe costs), feature distances and per-shape machine solves.
// It is safe for concurrent use; one Solver should live as long as its
// cost model so arrivals/departures re-price only what changed. Every
// table is a memo.Gen of solveGeneration entries a generation.
type Solver struct {
	cfg   Config
	model core.CostModel

	mu       sync.Mutex
	sketches memo.Gen[*core.WorkloadSpec, *telemetry.TopK]
	probes   memo.Gen[*core.WorkloadSpec, []float64]
	feats    memo.Gen[*core.WorkloadSpec, *feature]
	dists    memo.Gen[[2]*feature, float64]
	// repIDs interns class-representative pricing keys
	// (core.WorkloadSpec.PricingKey — specs with equal keys MUST price
	// identically under the cost model) to ids that are never reused:
	// nextRepID numbers the next key, so an evicted key returns under a
	// new id. solves memoizes per-machine solutions by the hash of the
	// machine's shape (see shapes), each hit confirmed against the solve's
	// repIDs, so memo keys survive reclustering and tenant renames.
	repIDs    memo.Gen[string, int]
	nextRepID int
	solves    memo.Gen[uint64, *machineSolve]
}

// NewSolver creates a fleet solver over the given per-tenant cost model
// (typically a core.WhatIfModel, whose per-statement cost atoms share
// probe and solver evaluations process-wide).
func NewSolver(cfg Config, model core.CostModel) (*Solver, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("placement: nil cost model")
	}
	return &Solver{
		cfg:      cfg,
		model:    model,
		sketches: memo.Gen[*core.WorkloadSpec, *telemetry.TopK]{Cap: solveGeneration},
		probes:   memo.Gen[*core.WorkloadSpec, []float64]{Cap: solveGeneration},
		feats:    memo.Gen[*core.WorkloadSpec, *feature]{Cap: solveGeneration},
		dists:    memo.Gen[[2]*feature, float64]{Cap: solveGeneration},
		repIDs:   memo.Gen[string, int]{Cap: solveGeneration},
		solves:   memo.Gen[uint64, *machineSolve]{Cap: solveGeneration, Evict: mSolveEvict},
	}, nil
}

func (s *Solver) workers() int {
	if s.cfg.Parallelism > 0 {
		return s.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// PlacedTenant is one tenant's seat on a machine: its class, its resource
// shares from the machine's solved allocation, and its predicted cost at
// those shares.
type PlacedTenant struct {
	Name   string    `json:"name"`
	Class  int       `json:"class"`
	Shares vm.Shares `json:"shares"`
	Cost   float64   `json:"cost"`
}

// Machine is one packed machine: its class-multiset memo key, its seated
// tenants in canonical slot order, and the solved objective total.
type Machine struct {
	ID        int            `json:"id"`
	Key       string         `json:"key"`
	Tenants   []PlacedTenant `json:"tenants"`
	TotalCost float64        `json:"total_cost"`
}

// ClassInfo describes one workload class of the compression step.
type ClassInfo struct {
	ID      int      `json:"id"`
	Rep     string   `json:"rep"` // representative tenant name
	Size    int      `json:"size"`
	Members []string `json:"members"`
}

// SolveStats summarizes one placement pass.
type SolveStats struct {
	Tenants  int `json:"tenants"`
	Classes  int `json:"classes"`
	Machines int `json:"machines"`
	// MachineSolves counts fresh per-machine solver runs this pass (the
	// dirty-machine worklist length); MemoHits counts distinct machine
	// keys answered from the memo instead.
	MachineSolves int `json:"machine_solves"`
	MemoHits      int `json:"memo_hits"`
	// ReusedMachines counts placed machines whose solve predated this
	// pass.
	ReusedMachines int `json:"reused_machines"`
	Orders         int `json:"orders"`
}

// Placement is a solved fleet: classes, machines, and the fleet objective
// total (the sum of verified per-machine solver totals — TotalCost is
// never synthesized from class counts alone).
type Placement struct {
	Classes   []ClassInfo `json:"classes"`
	Machines  []Machine   `json:"machines"`
	TotalCost float64     `json:"total_cost"`
	// Order is the packing order that won the best-of-k refinement.
	Order int        `json:"order"`
	Stats SolveStats `json:"stats"`

	solver *Solver
	// sols[i] is the memoized solve Machines[i] was seated from and
	// repIDs[c] the solver-interned rep id of class c: what Verify checks
	// the exported seats against.
	sols   []*machineSolve
	repIDs []int
	reps   []*core.WorkloadSpec // class id → representative spec
	fleetState
}

// fleetState is the per-tenant state a placement pass starts from and leaves
// on the Placement it returns. Apply patches it per event, so a warm pass
// pays no fleet-wide sorts or map lookups, featurizes only the tenants
// the events brought, and re-clusters only when the set of groups changed.
type fleetState struct {
	ts   []*Tenant  // the fleet in sorted-name order
	feat []*feature // per tenant, its feature; nil until featurized
	fid  []int32    // per tenant, its group in fs; -1 until grouped
	seqs [][]seqEnt // the shuffled packing sequences over ts; nil until built
	fs   []*feature // per group, its first member's feature, signature-sorted
	gcls []int32    // per group, its class
	lead []int32    // per class, its leader group
}

// Tenants returns the placed tenant names in sorted order.
func (pl *Placement) Tenants() []string {
	names := make([]string, len(pl.ts))
	for i, t := range pl.ts {
		names[i] = t.Name
	}
	return names
}

// Solve places the tenant fleet from scratch (modulo the solver's memos,
// which change speed, never results).
func (s *Solver) Solve(ctx context.Context, tenants []*Tenant) (*Placement, error) {
	start := time.Now()
	sp := obs.StartSpan("placement.solve")
	defer sp.End()
	ts, err := sortTenants(tenants)
	if err != nil {
		return nil, err
	}
	fid := make([]int32, len(ts))
	for i := range fid {
		fid[i] = -1
	}
	pl, err := s.place(ctx, fleetState{ts: ts, feat: make([]*feature, len(ts)), fid: fid})
	if err != nil {
		return nil, err
	}
	mSolveCount.Inc()
	hSolveSeconds.Observe(time.Since(start).Seconds())
	sp.SetArg("tenants", pl.Stats.Tenants)
	sp.SetArg("classes", pl.Stats.Classes)
	sp.SetArg("machines", pl.Stats.Machines)
	sp.SetArg("machine_solves", pl.Stats.MachineSolves)
	return pl, nil
}

// sortTenants validates a tenant list and returns it as a fresh
// name-sorted slice, rejecting duplicates.
func sortTenants(tenants []*Tenant) ([]*Tenant, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("placement: no tenants")
	}
	ts := append([]*Tenant(nil), tenants...)
	for i, t := range ts {
		if err := validTenant(t); err != nil {
			return nil, fmt.Errorf("placement: tenant %d: %w", i, err)
		}
	}
	slices.SortFunc(ts, func(a, b *Tenant) int { return strings.Compare(a.Name, b.Name) })
	for i := 1; i < len(ts); i++ {
		if ts[i].Name == ts[i-1].Name {
			return nil, fmt.Errorf("placement: duplicate tenant name %q", ts[i].Name)
		}
	}
	return ts, nil
}

func validTenant(t *Tenant) error {
	if t == nil {
		return fmt.Errorf("nil tenant")
	}
	if t.Name == "" {
		return fmt.Errorf("empty tenant name")
	}
	if t.Spec == nil {
		return fmt.Errorf("%s: nil workload spec", t.Name)
	}
	if t.Spec.DB == nil {
		return fmt.Errorf("%s: spec has no database", t.Name)
	}
	if len(t.Spec.Statements) == 0 {
		return fmt.Errorf("%s: spec has no statements", t.Name)
	}
	return nil
}

// place runs the full pipeline — features, compression, packing, machine
// solves — over a fleet state: a cold solve's (no tenant featurized, no
// groups, no sequences) or the one Apply patched from its placement's. It
// is the one core of Solve and Apply and a deterministic function of
// (tenant contents, config); the memos and the carried state are
// value-transparent. Every O(fleet) step is a flat pass over per-tenant
// or per-machine arrays. place fills f.feat's nil entries and rewrites
// f.fid; it only reads the rest of f.
func (s *Solver) place(ctx context.Context, f fleetState) (*Placement, error) {
	ts := f.ts
	if err := s.features(ctx, ts, f.feat); err != nil {
		return nil, err
	}
	fs, first := regroup(f.feat, f.fid, f.fs)
	gcls, lead := f.gcls, f.lead
	if gcls == nil || !slices.Equal(fs, f.fs) {
		gcls, lead = s.clusterClasses(fs)
	}

	// Per-class packing/pricing metadata, priced by each class's leader
	// group's first member.
	nc := len(lead)
	meta := make([]classMeta, nc)
	s.mu.Lock()
	for c, g := range lead {
		rep := ts[first[g]]
		rk := rep.Spec.PricingKey()
		id, ok := s.repIDs.Get(rk)
		if !ok {
			id = s.nextRepID
			s.nextRepID++
			s.repIDs.Put(rk, id)
		}
		meta[c] = classMeta{repKey: rk, repID: id, rep: rep, demand: fs[g].demand, scalar: fs[g].scalar}
	}
	s.mu.Unlock()
	rankOrder := make([]int, nc)
	for i := range rankOrder {
		rankOrder[i] = i
	}
	slices.SortFunc(rankOrder, func(a, b int) int {
		if c := strings.Compare(meta[a].repKey, meta[b].repKey); c != 0 {
			return c
		}
		return a - b
	})
	for r, c := range rankOrder {
		meta[c].rank = r
	}

	// Per-tenant class and the class member lists by counting sort
	// (ascending index == ascending name): the pack and seat loops never
	// touch a map.
	n := len(ts)
	classOf := make([]int32, n)
	start := make([]int32, nc+1)
	for i, g := range f.fid {
		c := gcls[g]
		classOf[i] = c
		start[c+1]++
	}
	for c := 0; c < nc; c++ {
		start[c+1] += start[c]
	}
	members := make([]int32, n)
	next := slices.Clone(start[:nc])
	for i, c := range classOf {
		members[next[c]] = int32(i)
		next[c]++
	}

	seqs := f.seqs
	if seqs == nil {
		seqs = s.buildSeqs(ts)
	}

	// Try every packing order, then intern each machine's shape once.
	p := newPacking(s.cfg.Machine.MaxTenants, n, s.cfg.Orders)
	seq := order0Sequence(members, start, meta)
	s.pack(p, seq, classOf, meta)
	for _, sq := range seqs {
		for i, e := range sq {
			seq[i] = e.idx
		}
		s.pack(p, seq, classOf, meta)
	}
	shape := make([]int32, len(p.fill))
	sh := newShapes(len(p.fill))
	for m := range shape {
		slotOrder(p.members(m), classOf, meta)
		shape[m] = sh.intern(p, m, classOf, meta)
	}

	// Dirty-machine worklist: the shapes no prior pass has solved, in
	// first-seen order, fanned over the worker pool.
	sols := make([]*machineSolve, len(sh.hash))
	preSolved := make([]bool, len(sh.hash))
	var missing []int32
	s.mu.Lock()
	for id, h := range sh.hash {
		if ms, ok := s.solves.Get(h); ok && ms.matches(p.members(int(sh.ref[id])), classOf, meta) {
			sols[id] = ms
			preSolved[id] = true
		} else {
			missing = append(missing, int32(id))
		}
	}
	s.mu.Unlock()
	memoHits := len(sols) - len(missing)
	if len(missing) > 0 {
		workers := s.workers()
		inner := 1
		if len(missing) == 1 {
			inner = workers // one dirty machine: give it the whole pool
		}
		if err := core.ParallelFor(ctx, workers, len(missing), func(_, i int) error {
			id := missing[i]
			mem := p.members(int(sh.ref[id]))
			specs := make([]*core.WorkloadSpec, len(mem))
			ids := make([]int, len(mem))
			for j, ti := range mem {
				cm := &meta[classOf[ti]]
				specs[j], ids[j] = cm.rep.Spec, cm.repID
			}
			ms, err := s.solveMachine(ctx, specs, ids, inner)
			if err != nil {
				return err
			}
			sols[id] = ms
			return nil
		}); err != nil {
			return nil, err
		}
		s.mu.Lock()
		for _, id := range missing {
			s.solves.Put(sh.hash[id], sols[id])
		}
		gSolveEntries.Set(float64(s.solves.Len()))
		s.mu.Unlock()
	}
	mMachineSolves.Add(int64(len(missing)))
	mMachineMemoHits.Add(int64(memoHits))

	// Pick the cheapest order; ties break to the lowest order index, so
	// the winner is a deterministic function of the tenant set.
	bestOrder, bestTotal, lo, hi := -1, 0.0, 0, 0
	for o, end := range p.ends {
		begin := 0
		if o > 0 {
			begin = p.ends[o-1]
		}
		total := 0.0
		for m := begin; m < end; m++ {
			total += sols[shape[m]].total
		}
		if bestOrder < 0 || total < bestTotal {
			bestOrder, bestTotal, lo, hi = o, total, begin, end
		}
	}
	machines := make([]Machine, hi-lo)
	plSols := make([]*machineSolve, hi-lo)
	allSeats := make([]PlacedTenant, 0, n) // every machine's seats, one allocation
	reused := 0
	fleetTotal := 0.0
	for mi := range machines {
		id := shape[lo+mi]
		sol := sols[id]
		at := len(allSeats)
		for j, ti := range p.members(lo + mi) {
			allSeats = append(allSeats, PlacedTenant{
				Name:   ts[ti].Name,
				Class:  int(classOf[ti]),
				Shares: sol.shares[j],
				Cost:   sol.costs[j],
			})
		}
		seats := allSeats[at:len(allSeats):len(allSeats)]
		machines[mi] = Machine{ID: mi, Key: sol.display, Tenants: seats, TotalCost: sol.total}
		plSols[mi] = sol
		fleetTotal += sol.total
		if preSolved[id] {
			reused++
		}
	}
	mMachinesReused.Add(int64(reused))

	infos := make([]ClassInfo, nc)
	names := make([]string, n)
	reps := make([]*core.WorkloadSpec, nc)
	repIDs := make([]int, nc)
	for c := range infos {
		a, b := start[c], start[c+1]
		for j, ti := range members[a:b] {
			names[int(a)+j] = ts[ti].Name
		}
		infos[c] = ClassInfo{ID: c, Rep: meta[c].rep.Name, Size: int(b - a), Members: names[a:b:b]}
		reps[c] = meta[c].rep.Spec
		repIDs[c] = meta[c].repID
	}

	pl := &Placement{
		Classes:   infos,
		Machines:  machines,
		TotalCost: fleetTotal,
		Order:     bestOrder,
		Stats: SolveStats{
			Tenants:        n,
			Classes:        nc,
			Machines:       len(machines),
			MachineSolves:  len(missing),
			MemoHits:       memoHits,
			ReusedMachines: reused,
			Orders:         s.cfg.Orders,
		},
		solver:     s,
		sols:       plSols,
		repIDs:     repIDs,
		reps:       reps,
		fleetState: fleetState{ts: ts, feat: f.feat, fid: f.fid, seqs: seqs, fs: fs, gcls: gcls, lead: lead},
	}
	gTenants.Set(float64(pl.Stats.Tenants))
	gClasses.Set(float64(pl.Stats.Classes))
	gMachines.Set(float64(pl.Stats.Machines))
	return pl, nil
}

// Verify is the guarantee behind TotalCost: the fleet objective is never
// reported without per-machine solver results that re-verify. Every pass
// walks every machine and checks its seats against the memoized solve it
// was seated from — class ids in range, each slot's class pricing as the
// solve's slot does, shares, costs and machine total bit-identical — and
// the fleet total against the sum of machine totals. A machine shape is
// additionally re-evaluated through the cost model, and its recomputed
// costs and total required to be bit-identical to the solve's, the first
// time any placement seats it: cost is a pure function of the PricingKey
// multiset (the contract the solve memo itself rests on), so later
// machines of an already-verified shape need only match the solve.
func (pl *Placement) Verify(ctx context.Context) error {
	if pl.solver == nil {
		return fmt.Errorf("placement: not produced by a Solver")
	}
	if len(pl.sols) != len(pl.Machines) {
		return fmt.Errorf("placement: %d machines for %d solves", len(pl.Machines), len(pl.sols))
	}
	fleet := 0.0
	for mi := range pl.Machines {
		m, sol := &pl.Machines[mi], pl.sols[mi]
		if len(m.Tenants) != len(sol.costs) {
			return fmt.Errorf("placement: machine %d: %d tenants on a %d-slot solve", m.ID, len(m.Tenants), len(sol.costs))
		}
		for i := range m.Tenants {
			pt := &m.Tenants[i]
			if pt.Class < 0 || pt.Class >= len(pl.reps) {
				return fmt.Errorf("placement: machine %d tenant %s: unknown class %d", m.ID, pt.Name, pt.Class)
			}
			if pl.repIDs[pt.Class] != sol.repIDs[i] {
				return fmt.Errorf("placement: machine %d tenant %s: class %d is not what slot %d was solved for",
					m.ID, pt.Name, pt.Class, i)
			}
			if !sameShares(pt.Shares, sol.shares[i]) {
				return fmt.Errorf("placement: machine %d tenant %s: shares %v != solved %v",
					m.ID, pt.Name, pt.Shares, sol.shares[i])
			}
			if !sameBits(pt.Cost, sol.costs[i]) {
				return fmt.Errorf("placement: machine %d tenant %s: cost %v != verified %v",
					m.ID, pt.Name, pt.Cost, sol.costs[i])
			}
		}
		if !sameBits(m.TotalCost, sol.total) {
			return fmt.Errorf("placement: machine %d: total %v != verified %v", m.ID, m.TotalCost, sol.total)
		}
		if !sol.verified.Load() {
			if err := pl.verifySolve(ctx, m, sol); err != nil {
				return err
			}
			sol.verified.Store(true)
		}
		fleet += m.TotalCost
	}
	if fleet != pl.TotalCost {
		return fmt.Errorf("placement: fleet total %v != verified %v", pl.TotalCost, fleet)
	}
	return nil
}

// verifySolve re-evaluates sol's allocation for the specs seated on m
// (which Verify has just matched to sol slot by slot) directly through
// the cost model and checks costs and total are bit-identical.
func (pl *Placement) verifySolve(ctx context.Context, m *Machine, sol *machineSolve) error {
	s := pl.solver
	mVerifyChecks.Inc()
	specs := make([]*core.WorkloadSpec, len(m.Tenants))
	for i, pt := range m.Tenants {
		specs[i] = pl.reps[pt.Class]
	}
	var costs []float64
	var total float64
	if len(specs) == 1 {
		c, err := s.model.Cost(ctx, specs[0], sol.shares[0])
		if err != nil {
			return err
		}
		costs, total = []float64{c}, specWeight(specs[0])*c
	} else {
		res, err := core.EvaluateAllocation(ctx, s.machineProblem(specs, 1), s.model, sol.shares, "placement-verify")
		if err != nil {
			return err
		}
		costs, total = res.PredictedCosts, res.PredictedTotal
	}
	for i, pt := range m.Tenants {
		if costs[i] != sol.costs[i] {
			return fmt.Errorf("placement: machine %d tenant %s: cost %v != verified %v",
				m.ID, pt.Name, sol.costs[i], costs[i])
		}
	}
	if total != sol.total {
		return fmt.Errorf("placement: machine %d: total %v != verified %v", m.ID, sol.total, total)
	}
	return nil
}

// sameBits reports bit-identity of two floats (unlike ==, it tells 0 from
// -0 and equates a NaN with itself), the equality under which a memoized
// value may stand in for a reported one.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameShares(a, b vm.Shares) bool {
	return sameBits(a.CPU, b.CPU) && sameBits(a.Memory, b.Memory) && sameBits(a.IO, b.IO)
}

func specWeight(w *core.WorkloadSpec) float64 {
	if w.Weight <= 0 {
		return 1
	}
	return w.Weight
}
