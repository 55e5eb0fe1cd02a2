package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"dbvirt/internal/obs"
	"dbvirt/internal/vm"
)

// finishSolve stamps the bookkeeping shared by every solver onto r: the
// cache counters, the wall clock, the global solve metrics, and the span
// (nil-safe) annotated with the solve's shape.
func finishSolve(r *Result, memo *costCache, start time.Time, sp *obs.Span) *Result {
	r.Evaluations = memo.evaluations()
	r.CacheHits = memo.cacheHits()
	r.Elapsed = time.Since(start)
	mSolveCount.Inc()
	hSolveSeconds.Observe(r.Elapsed.Seconds())
	sp.SetArg("evaluations", r.Evaluations)
	sp.SetArg("cache_hits", r.CacheHits)
	sp.SetArg("total", r.PredictedTotal)
	sp.End()
	return r
}

// sharesFromUnits builds one workload's Shares from per-searched-resource
// unit counts (units is aligned with p.Resources); non-searched resources
// get the equal split. No intermediate maps are allocated: shares are set
// by indexing the resource directly.
func (p *Problem) sharesFromUnits(units []int) vm.Shares {
	f := p.fixedShare()
	s := vm.Shares{CPU: f, Memory: f, IO: f}
	for k, r := range p.Resources {
		s = s.With(r, float64(units[k])*p.Step)
	}
	return s
}

// allocationFromResUnits converts a per-resource unit matrix (rows aligned
// with p.Resources, columns per workload) into an Allocation.
func (p *Problem) allocationFromResUnits(resUnits [][]int) Allocation {
	return p.allocationIntoResUnits(make(Allocation, len(p.Workloads)), resUnits)
}

// allocationIntoResUnits is allocationFromResUnits writing into a
// caller-owned Allocation (len == len(p.Workloads)), for hot loops that
// must not allocate per candidate.
func (p *Problem) allocationIntoResUnits(dst Allocation, resUnits [][]int) Allocation {
	f := p.fixedShare()
	for i := range dst {
		s := vm.Shares{CPU: f, Memory: f, IO: f}
		for k, r := range p.Resources {
			s = s.With(r, float64(resUnits[k][i])*p.Step)
		}
		dst[i] = s
	}
	return dst
}

// compositions enumerates all ways to split `total` units among n
// workloads with at least min units each.
func compositions(n, total, min int) [][]int {
	var out [][]int
	cur := make([]int, n)
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == n-1 {
			if remaining >= min {
				cur[i] = remaining
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		maxHere := remaining - min*(n-1-i)
		for u := min; u <= maxHere; u++ {
			cur[i] = u
			rec(i+1, remaining-u)
		}
	}
	if total >= min*n {
		rec(0, total)
	}
	return out
}

// exhaustiveCand is one evaluated candidate of the exhaustive
// enumeration: the flat candidate index (-1 for none yet) plus the
// evaluated allocation.
type exhaustiveCand struct {
	idx   int
	total float64
	costs []float64
	alloc Allocation
}

// better reports whether c should replace cur. Ties in the objective break
// by enumeration order (the smaller flat index), which is exactly the
// "first strictly-better candidate wins" rule of a serial scan — so the
// winner is independent of how candidates were distributed over workers.
func (c *exhaustiveCand) better(cur *exhaustiveCand) bool {
	if c.idx < 0 || cur.idx < 0 {
		return c.idx >= 0
	}
	return c.total < cur.total || (c.total == cur.total && c.idx < cur.idx)
}

// SolverNamed returns the solver a CLI flag or an API request names:
// "dp", "greedy", or "exhaustive".
func SolverNamed(name string) (func(context.Context, *Problem, CostModel) (*Result, error), error) {
	switch name {
	case "dp":
		return SolveDP, nil
	case "greedy":
		return SolveGreedy, nil
	case "exhaustive":
		return SolveExhaustive, nil
	}
	return nil, fmt.Errorf("unknown algo %q (want dp, greedy, or exhaustive)", name)
}

// SolveExhaustive enumerates every grid allocation and returns the best.
// The search space is the cross product of per-resource compositions, so
// it is only feasible for small N and coarse steps; it exists as the
// ground truth for the other algorithms. Candidates are evaluated on
// p.Parallelism workers over a shared memoized cost cache; the result is
// identical to a serial scan regardless of scheduling. The first
// evaluation error cancels the remaining candidates, and cancelling ctx
// aborts the search promptly.
func SolveExhaustive(ctx context.Context, p *Problem, model CostModel) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	startT := time.Now()
	sp := obs.StartSpan("core.solve.exhaustive")
	defer sp.End() // idempotent; covers the error returns
	memo := newCostCache(model)
	perRes := make([][][]int, len(p.Resources))
	numCands := 1
	for ri := range p.Resources {
		perRes[ri] = compositions(len(p.Workloads), p.units(), 1)
		if len(perRes[ri]) == 0 {
			return nil, fmt.Errorf("core: no feasible allocation at step %g", p.Step)
		}
		numCands *= len(perRes[ri])
	}

	// Candidates are indexed in mixed radix with the last resource varying
	// fastest, matching the nesting order of a recursive enumeration.
	decode := func(idx int, resUnits [][]int) {
		for ri := len(perRes) - 1; ri >= 0; ri-- {
			comps := perRes[ri]
			resUnits[ri] = comps[idx%len(comps)]
			idx /= len(comps)
		}
	}

	workers := p.workers()
	if workers > numCands {
		workers = numCands
	}
	// Each worker evaluates into its own scratch candidate and swaps it
	// with its best when it wins, so a candidate allocates nothing.
	n := len(p.Workloads)
	scratch := make([]exhaustiveCand, workers)
	bests := make([]exhaustiveCand, workers)
	decodeBufs := make([][][]int, workers)
	for w := range bests {
		for _, c := range []*exhaustiveCand{&scratch[w], &bests[w]} {
			*c = exhaustiveCand{idx: -1, costs: make([]float64, n), alloc: make(Allocation, n)}
		}
		decodeBufs[w] = make([][]int, len(perRes))
	}
	// The first failing candidate cancels dispatch (parallelFor) so the
	// pool stops promptly instead of evaluating the rest of the space.
	if err := ParallelFor(ctx, workers, numCands, func(w, idx int) error {
		resUnits := decodeBufs[w]
		decode(idx, resUnits)
		c := &scratch[w]
		c.idx = idx
		p.allocationIntoResUnits(c.alloc, resUnits)
		var err error
		if c.total, err = p.evaluateInto(ctx, memo, c.alloc, c.costs); err != nil {
			return err
		}
		if c.better(&bests[w]) {
			scratch[w], bests[w] = bests[w], scratch[w]
		}
		return nil
	}); err != nil {
		return nil, err
	}

	best := &bests[0]
	for w := range bests {
		if bests[w].better(best) {
			best = &bests[w]
		}
	}
	sp.SetArg("candidates", numCands)
	return finishSolve(&Result{
		Algorithm:      "exhaustive",
		Allocation:     best.alloc,
		PredictedCosts: best.costs,
		PredictedTotal: best.total,
	}, memo, startT, sp), nil
}

// SolveDP solves the problem exactly by dynamic programming over
// workloads, with the remaining units of each searched resource as state.
// The objective is separable across workloads (each workload's cost
// depends only on its own shares), which is exactly the structure the
// paper suggests exploiting with standard DP. Cancelling ctx aborts the
// recursion at the next state expansion.
func SolveDP(ctx context.Context, p *Problem, model CostModel) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	startT := time.Now()
	sp := obs.StartSpan("core.solve.dp")
	defer sp.End()
	memo := newCostCache(model)
	n := len(p.Workloads)
	nr := len(p.Resources)
	const min = 1 // every workload keeps at least one step

	type state struct {
		i   int
		rem [vm.NumResources]int
	}
	type entry struct {
		cost   float64
		choice [vm.NumResources]int
	}
	table := make(map[state]entry)
	// One unit vector per workload depth: a state's enumeration only
	// recurses into deeper workloads, so the vectors never alias.
	unitsBuf := make([]int, n*nr)

	var solve func(st state) (entry, error)
	solve = func(st state) (entry, error) {
		if err := ctx.Err(); err != nil {
			return entry{}, err
		}
		if e, ok := table[st]; ok {
			return e, nil
		}
		// Enumerate this workload's unit vector.
		w := p.Workloads[st.i]
		last := st.i == n-1
		bestE := entry{cost: math.Inf(1)}
		units := unitsBuf[st.i*nr : (st.i+1)*nr]
		var rec func(ri int) error
		rec = func(ri int) error {
			if ri == nr {
				c, err := memo.Cost(ctx, st.i, w, p.sharesFromUnits(units))
				if err != nil {
					return err
				}
				total := p.objectiveTerm(w, c)
				if !last {
					next := state{i: st.i + 1}
					for k, r := range p.Resources {
						next.rem[r] = st.rem[r] - units[k]
					}
					sub, err := solve(next)
					if err != nil {
						return err
					}
					total += sub.cost
				}
				if total < bestE.cost {
					bestE.cost = total
					for k, r := range p.Resources {
						bestE.choice[r] = units[k]
					}
				}
				return nil
			}
			r := p.Resources[ri]
			lo, hi := min, st.rem[r]-min*(n-1-st.i)
			if last {
				lo, hi = st.rem[r], st.rem[r] // the last workload takes the rest
			}
			for u := lo; u <= hi; u++ {
				units[ri] = u
				if err := rec(ri + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(0); err != nil {
			return entry{}, err
		}
		if math.IsInf(bestE.cost, 1) {
			return entry{}, fmt.Errorf("core: no feasible allocation for workload %d", st.i)
		}
		table[st] = bestE
		return bestE, nil
	}

	start := state{}
	for _, r := range p.Resources {
		start.rem[r] = p.units()
	}
	if _, err := solve(start); err != nil {
		return nil, err
	}

	// Reconstruct the allocation by replaying the choices.
	resUnits := make([][]int, nr)
	for k := range p.Resources {
		resUnits[k] = make([]int, n)
	}
	st := start
	for i := 0; i < n; i++ {
		st.i = i
		e := table[st]
		next := st
		next.i = i + 1
		for k, r := range p.Resources {
			resUnits[k][i] = e.choice[r]
			next.rem[r] = st.rem[r] - e.choice[r]
		}
		st = next
	}
	alloc := p.allocationFromResUnits(resUnits)
	total, costs, err := p.evaluate(ctx, memo, alloc)
	if err != nil {
		return nil, err
	}
	sp.SetArg("states", len(table))
	return finishSolve(&Result{
		Algorithm:      "dp",
		Allocation:     alloc,
		PredictedCosts: costs,
		PredictedTotal: total,
	}, memo, startT, sp), nil
}

// greedyMove is one candidate quantum shift: one unit of resource
// p.Resources[ri] from workload donor to workload recv.
type greedyMove struct {
	ri, donor, recv int
}

// SolveGreedy starts from the equal allocation and repeatedly moves one
// share quantum of one resource from a donor workload to a recipient,
// taking the best improving move until none exists. A local search in the
// spirit of the paper's "standard combinatorial search" suggestion: cheap,
// and optimal in practice for well-behaved cost surfaces. Each round's
// neighbor moves are evaluated on p.Parallelism workers into pre-indexed
// slots and then selected by a serial scan in move order, so the chosen
// move is identical to a fully serial search. The first evaluation error
// cancels the round's remaining moves, and cancelling ctx aborts the
// search promptly.
func SolveGreedy(ctx context.Context, p *Problem, model CostModel) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	startT := time.Now()
	sp := obs.StartSpan("core.solve.greedy")
	defer sp.End()
	memo := newCostCache(model)
	n := len(p.Workloads)
	const min = 1 // every workload keeps at least one step
	workers := p.workers()

	// Equal start, snapped to the grid.
	resUnits := make([][]int, len(p.Resources))
	for k := range p.Resources {
		base := p.units() / n
		rem := p.units() - base*n
		u := make([]int, n)
		for i := range u {
			u[i] = base
			if i < rem {
				u[i]++
			}
		}
		resUnits[k] = u
	}

	alloc := p.allocationFromResUnits(resUnits)
	bestTotal, bestCosts, err := p.evaluate(ctx, memo, alloc)
	if err != nil {
		return nil, err
	}

	// Invariant scaffolding, hoisted out of the round loop: the move list,
	// the per-move result slots (totals plus a flat per-workload cost
	// matrix), and per-worker scratch (a private unit matrix and a reusable
	// candidate Allocation). Every round reuses these; the steady-state move
	// scan performs zero allocations beyond what the cost model itself
	// needs (see TestGreedyAllocsPerRound).
	maxMoves := len(p.Resources) * n * (n - 1)
	moves := make([]greedyMove, 0, maxMoves)
	totals := make([]float64, maxMoves)
	costsFlat := make([]float64, maxMoves*n)
	scratch := make([][][]int, workers)
	candBufs := make([]Allocation, workers)
	rounds := 0
	for round := 1; ; round++ {
		// Enumerate this round's feasible moves in deterministic order.
		moves = moves[:0]
		for ri := range p.Resources {
			u := resUnits[ri]
			for donor := 0; donor < n; donor++ {
				if u[donor] <= min {
					continue
				}
				for recv := 0; recv < n; recv++ {
					if recv != donor {
						moves = append(moves, greedyMove{ri: ri, donor: donor, recv: recv})
					}
				}
			}
		}
		if len(moves) == 0 {
			break
		}
		rounds = round

		// Fan the move evaluations out; each worker applies moves to its
		// own scratch copy of the unit matrix and writes results into the
		// move's slot.
		if err := ParallelFor(ctx, workers, len(moves), func(w, mi int) error {
			if scratch[w] == nil {
				cp := make([][]int, len(resUnits))
				for k := range resUnits {
					cp[k] = append([]int(nil), resUnits[k]...)
				}
				scratch[w] = cp
				candBufs[w] = make(Allocation, n)
			}
			u := scratch[w]
			mv := moves[mi]
			u[mv.ri][mv.donor]--
			u[mv.ri][mv.recv]++
			cand := p.allocationIntoResUnits(candBufs[w], u)
			u[mv.ri][mv.donor]++
			u[mv.ri][mv.recv]--
			var err error
			totals[mi], err = p.evaluateInto(ctx, memo, cand, costsFlat[mi*n:(mi+1)*n])
			return err
		}); err != nil {
			return nil, err
		}

		// Select the winning move exactly as a serial scan would: first
		// strictly-improving total in move order wins ties.
		bestMove := -1
		bestMoveTotal := bestTotal
		for mi := range moves {
			if total := totals[mi]; total < bestMoveTotal-1e-12 {
				bestMoveTotal = total
				bestMove = mi
			}
		}
		if bestMove < 0 {
			obs.Debug("greedy converged", "round", round,
				"moves", len(moves), "total", bestTotal)
			break
		}
		// The winner's total and per-workload costs are already known from
		// the scan; apply the move (to the live unit matrix and to every
		// initialized worker scratch, keeping them in sync for the next
		// round) and reuse them instead of re-evaluating.
		mv := moves[bestMove]
		resUnits[mv.ri][mv.donor]--
		resUnits[mv.ri][mv.recv]++
		for w := range scratch {
			if scratch[w] != nil {
				scratch[w][mv.ri][mv.donor]--
				scratch[w][mv.ri][mv.recv]++
			}
		}
		p.allocationIntoResUnits(alloc, resUnits)
		bestTotal = bestMoveTotal
		copy(bestCosts, costsFlat[bestMove*n:(bestMove+1)*n])
		obs.Debug("greedy round", "round", round, "moves", len(moves),
			"resource", int(p.Resources[mv.ri]), "donor", mv.donor,
			"recv", mv.recv, "total", bestTotal)
	}

	return finishSolve(&Result{
		Algorithm:      "greedy",
		Allocation:     alloc,
		PredictedCosts: bestCosts,
		PredictedTotal: bestTotal,
		Rounds:         rounds,
	}, memo, startT, sp), nil
}

// EvaluateAllocation scores an arbitrary allocation (e.g. the equal-shares
// baseline) under a cost model, returning a Result for comparison.
func EvaluateAllocation(ctx context.Context, p *Problem, model CostModel, alloc Allocation, name string) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(alloc) != len(p.Workloads) {
		return nil, fmt.Errorf("core: allocation has %d entries for %d workloads", len(alloc), len(p.Workloads))
	}
	startT := time.Now()
	sp := obs.StartSpan("core.evaluate." + name)
	defer sp.End()
	memo := newCostCache(model)
	total, costs, err := p.evaluate(ctx, memo, alloc)
	if err != nil {
		return nil, err
	}
	return finishSolve(&Result{
		Algorithm:      name,
		Allocation:     alloc.Clone(),
		PredictedCosts: costs,
		PredictedTotal: total,
	}, memo, startT, sp), nil
}
