package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// atomCase is one (workload, allocation) pair with the cost the cold
// path — parse, bind and enumerate every statement copy — assigns it.
type atomCase struct {
	w      *WorkloadSpec
	shares vm.Shares
	want   float64
}

// atomCases draws random workloads over every benchmark query: 1–64
// repeats, runs and interleavings of up to three statements, any weight
// and SLO (as views of a shared base half of the time), priced at lattice
// corners and at random off-lattice shares.
func atomCases(t *testing.T, db *engine.Database, cold CostModel, n int) []atomCase {
	t.Helper()
	var names []string
	for q := range workload.Queries() {
		names = append(names, q)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(23))
	corner := func() float64 { return []float64{0.25, 1}[rng.Intn(2)] }
	var cases []atomCase
	for i := 0; i < n; i++ {
		var stmts []string
		for len(stmts) == 0 || (rng.Intn(3) > 0 && len(stmts) < 64) {
			q := workload.Query(names[rng.Intn(len(names))])
			switch rng.Intn(8) { // other spellings of the same statement
			case 0, 1:
				q = "  " + q + " ;"
			case 2, 3:
				q = "-- note\n" + q
			}
			for r := 1 + rng.Intn(64); r > 0 && len(stmts) < 64; r-- {
				stmts = append(stmts, q)
			}
		}
		if rng.Intn(3) == 0 {
			rng.Shuffle(len(stmts), func(a, b int) { stmts[a], stmts[b] = stmts[b], stmts[a] })
		}
		w := &WorkloadSpec{Name: fmt.Sprintf("rand%d", i), Statements: stmts, DB: db}
		if rng.Intn(2) == 0 {
			w = w.WithObjective(rng.Float64()*4, rng.Float64())
		} else {
			w.Weight, w.SLOSeconds = rng.Float64()*4, rng.Float64()
		}
		for _, sh := range []vm.Shares{
			{CPU: corner(), Memory: corner(), IO: corner()},
			{CPU: 0.25 + 0.75*rng.Float64(), Memory: 0.25 + 0.75*rng.Float64(), IO: 0.25 + 0.75*rng.Float64()},
		} {
			want, err := cold.Cost(context.Background(), w, sh)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, atomCase{w, sh, want})
		}
	}
	return cases
}

// heldAtoms counts the atoms of every statement entry m's cache resolved
// for the given specs, evicted from the cache or not.
func heldAtoms(m *WhatIfModel, specs []*WorkloadSpec) int64 {
	seen := map[*stmtEntry]bool{}
	var n int64
	for _, w := range specs {
		h := w.Base().handles.Load()
		if h == nil || h.cache != m.prepared() {
			continue
		}
		for _, e := range h.entries {
			if !seen[e] {
				seen[e] = true
				n += int64(e.atoms.Len())
			}
		}
	}
	return n
}

// TestCostAtomsMatchColdPath is the bit-identity property of the cost
// atoms: whatever the workload's shape and objective and wherever P(R)
// came from, WhatIfModel.Cost equals the NoPrepare cost — first sight and
// repeated, serially and from 8 goroutines, with the atom and statement
// bounds as shipped and each forced to 1 (every second pricing, or every
// second statement lookup, evicts).
func TestCostAtomsMatchColdPath(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a workload database")
	}
	db, _ := cacheDB(t)
	g := flipGrid(t)
	cases := atomCases(t, db, &WhatIfModel{Grid: g, NoPrepare: true}, 40)
	specs := make([]*WorkloadSpec, len(cases))
	for i, c := range cases {
		specs[i] = c.w
	}
	ctx := context.Background()
	for _, bound := range []struct{ atoms, stmts int }{{atomGeneration, stmtGeneration}, {1, stmtGeneration}, {atomGeneration, 1}} {
		check := func(m *WhatIfModel, from int) {
			for k := range cases {
				c := cases[(from+k)%len(cases)]
				got, err := m.Cost(ctx, c.w, c.shares)
				if err != nil {
					t.Error(err)
					return
				}
				if got != c.want {
					t.Errorf("bounds %+v: %s at %v: cost %v, cold cost %v", bound, c.w.Name, c.shares, got, c.want)
					return
				}
			}
		}
		bounded := func() *WhatIfModel {
			m := &WhatIfModel{Grid: g}
			m.prepared().atomBound = bound.atoms
			m.prepared().entries.Cap = bound.stmts
			return m
		}
		serial := bounded()
		atomsEvicted, stmtsEvicted, size := mAtomEvict.Value(), mPreparedEvict.Value(), atomCount.Load()
		check(serial, 0)
		check(serial, len(cases)/2) // warm: atoms, or what is left of them
		if bound.atoms == 1 && mAtomEvict.Value() == atomsEvicted {
			t.Error("an atom bound of 1 evicted nothing")
		}
		if bound.stmts == 1 && mPreparedEvict.Value() == stmtsEvicted {
			t.Error("a statement bound of 1 evicted nothing")
		}
		if got, held := atomCount.Load()-size, heldAtoms(serial, specs); got != held {
			t.Errorf("bounds %+v: core.atom.size moved by %d, the model holds %d atoms", bound, got, held)
		}

		shared := bounded()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				check(shared, w*len(cases)/8)
			}(w)
		}
		wg.Wait()
	}
}

// TestAtomBoundKeepsSolves: a solve over a model that can keep one atom
// per statement returns the result of one that keeps them all — the
// allocation, every predicted cost, and the evaluation and cache-hit
// counts — and holds no more atoms than its bound allows.
func TestAtomBoundKeepsSolves(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a workload database")
	}
	db, _ := cacheDB(t)
	g := flipGrid(t)
	specs := []*WorkloadSpec{
		{Name: "Q4x2", Statements: workload.Repeat("Q4", workload.Query("Q4"), 2).Statements, DB: db, Weight: 2},
		{Name: "Q13FULLx1", Statements: []string{workload.Query("Q13FULL")}, DB: db, SLOSeconds: 0.01},
		{Name: "mix", Statements: []string{workload.Query("Q6"), workload.Query("QPOINT"), workload.Query("Q6")}, DB: db},
	}
	solvers := map[string]func(context.Context, *Problem, CostModel) (*Result, error){
		"dp": SolveDP, "greedy": SolveGreedy, "exhaustive": SolveExhaustive,
	}
	for name, solve := range solvers {
		var results [2]*Result
		for i, bound := range []int{atomGeneration, 1} {
			m := &WhatIfModel{Grid: g}
			m.prepared().atomBound = bound
			p := &Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU, vm.Memory}, Step: 0.125,
				Objective: Objective{SLOPenalty: 3}}
			res, err := solve(context.Background(), p, m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res.Elapsed = 0
			results[i] = res
			if bound == 1 {
				for _, w := range specs {
					for _, e := range w.Base().handles.Load().entries {
						if n := e.atoms.Len(); n > 2 {
							t.Errorf("%s: a statement holds %d atoms under a bound of 1 per generation", name, n)
						}
					}
				}
			}
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s: bound 1 changed the solve:\n%+v\nvs\n%+v", name, results[1], results[0])
		}
	}
}
