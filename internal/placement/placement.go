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
	"sort"
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

// solveGeneration bounds the machine-solve memo: two generations of this
// many solves. A 1000-tenant fleet converges on ~1400 shapes, so its
// working set never turns over; turnover would only re-solve.
const solveGeneration = 4096

// Tenant is one fleet tenant: a workload spec plus optional telemetry.
// When Sketch or CostSummary are nil the solver derives them from the
// spec (normalized-statement sketch, starvation-probe cost vector) and
// memoizes the derivation per spec, so interned specs — as the server's
// workload registry hands out — are featurized once per fleet, not once
// per tenant.
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

func (c MachineCaps) cap(r int) float64 {
	switch r {
	case 0:
		return c.CPU
	case 1:
		return c.Memory
	default:
		return c.IO
	}
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
	// are at or below it. 0 clusters only identical features.
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
// (sketch + probe costs) and per-class-multiset machine solves. It is
// safe for concurrent use; one Solver should live as long as its cost
// model so arrivals/departures re-price only what changed.
type Solver struct {
	cfg   Config
	model core.CostModel

	mu       sync.Mutex
	sketches map[*core.WorkloadSpec]*telemetry.TopK
	probes   map[*core.WorkloadSpec][]float64
	feats    map[*core.WorkloadSpec]*feature
	// repIDs interns class-representative pricing keys
	// (core.WorkloadSpec.PricingKey — specs with equal keys MUST price
	// identically under the cost model) to dense ids; solves memoizes
	// per-machine solutions keyed by the compact sorted-id multiset
	// encoding (see appendCompactKey), so memo keys survive reclustering
	// and tenant renames.
	repIDs map[string]int
	solves memo.Gen[string, *machineSolve]
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
		sketches: make(map[*core.WorkloadSpec]*telemetry.TopK),
		probes:   make(map[*core.WorkloadSpec][]float64),
		feats:    make(map[*core.WorkloadSpec]*feature),
		repIDs:   make(map[string]int),
		solves:   memo.Gen[string, *machineSolve]{Cap: solveGeneration, Evict: mSolveEvict},
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
	// tenants is the fleet in sorted-name order; seqs holds the shuffled
	// packing sequences over it. Both are maintained incrementally across
	// Apply so a warm re-solve pays no fleet-wide sorts.
	tenants []*Tenant
	seqs    [][]seqEnt
	reps    []*core.WorkloadSpec // class id → representative spec
}

// Tenants returns the placed tenant names in sorted order.
func (pl *Placement) Tenants() []string {
	names := make([]string, len(pl.tenants))
	for i, t := range pl.tenants {
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
	pl, err := s.place(ctx, ts, nil)
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
// solves — over an already-validated name-sorted tenant slice. seqs, if
// non-nil, are the shuffled packing sequences maintained incrementally by
// Apply (nil rebuilds them by sorting). It is the shared core of Solve
// and Apply and is a deterministic function of (tenant contents, config);
// the memos and maintained sequences are value-transparent.
func (s *Solver) place(ctx context.Context, ts []*Tenant, seqs [][]seqEnt) (*Placement, error) {
	feats, err := s.features(ctx, ts)
	if err != nil {
		return nil, err
	}
	groups := buildGroups(ts, feats)
	classes := s.clusterClasses(groups)

	// Per-class packing/pricing metadata; classOfIdx maps each tenant
	// index to its class so the pack loops never touch a map.
	meta := make([]classMeta, len(classes))
	classMembers := make([][]int32, len(classes))
	classOfIdx := make([]int32, len(ts))
	s.mu.Lock()
	for ci, c := range classes {
		rk := c.leader.rep.Spec.PricingKey()
		id, ok := s.repIDs[rk]
		if !ok {
			id = len(s.repIDs)
			s.repIDs[rk] = id
		}
		n := 0
		for _, g := range c.groups {
			n += len(g.members)
		}
		members := make([]int32, 0, n)
		for _, g := range c.groups {
			members = append(members, g.members...)
		}
		slices.Sort(members) // ascending ts index == ascending name
		for _, m := range members {
			classOfIdx[m] = int32(ci)
		}
		classMembers[ci] = members
		meta[ci] = classMeta{
			repKey: rk,
			repID:  id,
			rep:    c.leader.rep,
			demand: c.leader.feat.demand,
			scalar: c.leader.feat.scalar,
		}
	}
	s.mu.Unlock()
	rankOrder := make([]int, len(classes))
	for i := range rankOrder {
		rankOrder[i] = i
	}
	sort.Slice(rankOrder, func(i, j int) bool {
		a, b := rankOrder[i], rankOrder[j]
		if meta[a].repKey != meta[b].repKey {
			return meta[a].repKey < meta[b].repKey
		}
		return a < b
	})
	for r, ci := range rankOrder {
		meta[ci].rank = r
	}

	if seqs == nil {
		seqs = s.buildSeqs(ts)
	}

	// Try every packing order. Machine keys are interned to dense ids as
	// they are built, so each key is hashed once per packed machine and
	// every later use — memo lookup, total, result build — is a slice
	// index.
	type packResult struct {
		machines [][]int32
		keyID    []int
	}
	results := make([]packResult, s.cfg.Orders)
	var (
		keyStrs []string
		keyRef  [][]int32 // key id → members of the first machine seen with it
	)
	keyIDOf := make(map[string]int)
	var keyBuf []byte
	var idsBuf []int
	order0 := order0Sequence(classMembers, meta)
	for o := range results {
		seq := order0
		if o > 0 {
			sq := seqs[o-1]
			seq = make([]int32, len(sq))
			for i, e := range sq {
				seq[i] = e.idx
			}
		}
		ms := s.pack(seq, classOfIdx, meta)
		ids := make([]int, len(ms))
		for i, m := range ms {
			keyBuf, idsBuf = appendCompactKey(keyBuf, idsBuf, m, classOfIdx, meta)
			id, ok := keyIDOf[string(keyBuf)] // no alloc: compiler-optimized lookup
			if !ok {
				id = len(keyStrs)
				k := string(keyBuf)
				keyIDOf[k] = id
				keyStrs = append(keyStrs, k)
				keyRef = append(keyRef, m)
			}
			ids[i] = id
		}
		results[o] = packResult{machines: ms, keyID: ids}
	}

	// Dirty-machine worklist: the keys no prior pass has solved, in
	// deterministic order, fanned over the worker pool.
	sols := make([]*machineSolve, len(keyStrs))
	preSolved := make([]bool, len(keyStrs))
	var missing []int
	s.mu.Lock()
	for id, k := range keyStrs {
		if ms, ok := s.solves.Get(k); ok {
			sols[id] = ms
			preSolved[id] = true
		} else {
			missing = append(missing, id)
		}
	}
	s.mu.Unlock()
	sort.Slice(missing, func(i, j int) bool { return keyStrs[missing[i]] < keyStrs[missing[j]] })
	memoHits := len(keyStrs) - len(missing)
	if len(missing) > 0 {
		workers := s.workers()
		inner := 1
		if len(missing) == 1 {
			inner = workers // one dirty machine: give it the whole pool
		}
		if err := core.ParallelFor(ctx, workers, len(missing), func(_, i int) error {
			id := missing[i]
			slot := slotMembers(keyRef[id], classOfIdx, meta, ts)
			specs := make([]*core.WorkloadSpec, len(slot))
			repIDs := make([]int, len(slot))
			for j, ti := range slot {
				cm := &meta[classOfIdx[ti]]
				specs[j], repIDs[j] = cm.rep.Spec, cm.repID
			}
			ms, err := s.solveMachine(ctx, keyStrs[id], specs, repIDs, inner)
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
			s.solves.Put(keyStrs[id], sols[id])
		}
		gSolveEntries.Set(float64(s.solves.Len()))
		s.mu.Unlock()
	}
	mMachineSolves.Add(int64(len(missing)))
	mMachineMemoHits.Add(int64(memoHits))

	// Pick the cheapest order; ties break to the lowest order index, so
	// the winner is a deterministic function of the tenant set.
	bestOrder, bestTotal := -1, 0.0
	for o, r := range results {
		total := 0.0
		for _, id := range r.keyID {
			total += sols[id].total
		}
		if bestOrder < 0 || total < bestTotal {
			bestOrder, bestTotal = o, total
		}
	}
	win := results[bestOrder]
	machines := make([]Machine, len(win.machines))
	plSols := make([]*machineSolve, len(win.machines))
	allSeats := make([]PlacedTenant, 0, len(ts)) // every machine's seats, one allocation
	reused := 0
	fleetTotal := 0.0
	for mi, members := range win.machines {
		id := win.keyID[mi]
		sol := sols[id]
		slot := slotMembers(members, classOfIdx, meta, ts)
		first := len(allSeats)
		for i, ti := range slot {
			allSeats = append(allSeats, PlacedTenant{
				Name:   ts[ti].Name,
				Class:  int(classOfIdx[ti]),
				Shares: sol.shares[i],
				Cost:   sol.costs[i],
			})
		}
		seats := allSeats[first:len(allSeats):len(allSeats)]
		machines[mi] = Machine{ID: mi, Key: sol.display, Tenants: seats, TotalCost: sol.total}
		plSols[mi] = sol
		fleetTotal += sol.total
		if preSolved[id] {
			reused++
		}
	}
	mMachinesReused.Add(int64(reused))

	infos := make([]ClassInfo, len(classes))
	reps := make([]*core.WorkloadSpec, len(classes))
	repIDs := make([]int, len(classes))
	for i, c := range classes {
		ms := classMembers[i]
		members := make([]string, len(ms))
		for j, ti := range ms {
			members[j] = ts[ti].Name
		}
		infos[i] = ClassInfo{ID: c.id, Rep: c.leader.rep.Name, Size: len(members), Members: members}
		reps[i] = c.leader.rep.Spec
		repIDs[i] = meta[i].repID
	}

	pl := &Placement{
		Classes:   infos,
		Machines:  machines,
		TotalCost: fleetTotal,
		Order:     bestOrder,
		Stats: SolveStats{
			Tenants:        len(ts),
			Classes:        len(classes),
			Machines:       len(machines),
			MachineSolves:  len(missing),
			MemoHits:       memoHits,
			ReusedMachines: reused,
			Orders:         s.cfg.Orders,
		},
		solver:  s,
		sols:    plSols,
		repIDs:  repIDs,
		tenants: ts,
		seqs:    seqs,
		reps:    reps,
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
