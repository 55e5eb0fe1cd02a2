package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"testing"
	"time"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// oracle answers the server's what-if, solve and grid requests from
// nothing the server holds: its own environment and database, its own
// synthetic grid, and a cost model without prepared statements or cost
// atoms. Sharing nothing, it also catches a bug in how the server builds
// or shares databases, statistics or the grid.
type oracle struct {
	env   *workload.Env
	grid  *calibration.Grid
	model *core.WhatIfModel
}

// newOracle builds the reference the way testEnv configures the server.
func newOracle(t *testing.T) *oracle {
	t.Helper()
	axes := []float64{0.25, 0.5, 0.75, 1.0}
	g, err := calibration.SyntheticGrid(axes, axes)
	if err != nil {
		t.Fatal(err)
	}
	return &oracle{
		env:   workload.NewEnv(workload.TinyScale(), vm.DefaultMachineConfig()),
		grid:  g,
		model: &core.WhatIfModel{Grid: g, NoPrepare: true},
	}
}

func (o *oracle) spec(t *testing.T, q string, n int) *core.WorkloadSpec {
	t.Helper()
	db, err := o.env.DB("oracle")
	if err != nil {
		t.Fatal(err)
	}
	return &core.WorkloadSpec{
		Name:       fmt.Sprintf("%sx%d", q, n),
		Statements: workload.Repeat(q, workload.Query(q), n).Statements,
		DB:         db,
	}
}

// encode is writeJSON's encoding.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// oracleMismatches sends a what-if for every named query, solves over
// pairs of them with each algorithm, and looks up lattice and off-lattice
// grid points, comparing every response body with the oracle's byte for
// byte. It returns one line per mismatch.
func oracleMismatches(t *testing.T, h http.Handler, o *oracle) []string {
	t.Helper()
	var bad []string
	check := func(what string, got, want []byte) {
		if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("%s:\n  server %s\n  oracle %s", what, got, want))
		}
	}
	var names []string
	for q := range workload.Queries() {
		names = append(names, q)
	}
	sort.Strings(names)
	ctx := context.Background()
	allocs := []vm.Shares{{CPU: 0.5, Memory: 0.5, IO: 0.5}, {CPU: 0.3, Memory: 0.8, IO: 0.45}}

	for _, q := range names {
		body := fmt.Sprintf(`{"workloads":[{"query":%q,"repeat":2}],"allocations":[{"cpu":0.5,"memory":0.5,"io":0.5},{"cpu":0.3,"memory":0.8,"io":0.45}]}`, q)
		rec := post(t, h, "/v1/whatif", body)
		costs, err := core.CostMatrix(ctx, o.model, []*core.WorkloadSpec{o.spec(t, q, 2)}, allocs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(WhatIfResponse{Model: o.model.Name(), Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		check("whatif "+q, rec.Body.Bytes(), want)
	}

	algos := []struct {
		name  string
		solve func(context.Context, *core.Problem, core.CostModel) (*core.Result, error)
	}{{"dp", core.SolveDP}, {"greedy", core.SolveGreedy}, {"exhaustive", core.SolveExhaustive}}
	for i, q := range names {
		q2 := names[(i+1)%len(names)]
		algo := algos[i%len(algos)]
		id := submitSolve(t, h, fmt.Sprintf(`{"workloads":[{"query":%q},{"query":%q,"repeat":3}],"resources":["cpu","memory"],"algo":%q}`, q, q2, algo.name))
		pollJob(t, h, id, 30*time.Second)
		res, err := algo.solve(ctx, &core.Problem{
			Workloads:   []*core.WorkloadSpec{o.spec(t, q, 1), o.spec(t, q2, 3)},
			Resources:   []vm.Resource{vm.CPU, vm.Memory},
			Step:        0.25,
			Parallelism: 1,
		}, o.model)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("solve %s %s+%s", algo.name, q, q2), get(t, h, "/v1/jobs/"+id).Body.Bytes(),
			encode(t, JobStatus{ID: id, State: jobDone, Result: solveResult(res)}))
	}

	for _, sh := range []SharesDTO{{CPU: 0.5, Memory: 0.75, IO: 0.25}, {CPU: 0.3, Memory: 0.8, IO: 0.45}} {
		v := url.Values{}
		v.Set("cpu", fmt.Sprint(sh.CPU))
		v.Set("mem", fmt.Sprint(sh.Memory))
		v.Set("io", fmt.Sprint(sh.IO))
		p, exact := o.grid.Lookup(sh.shares())
		if !exact {
			p = o.grid.Interpolate(sh.shares())
		}
		check("grid "+v.Encode(), get(t, h, "/v1/calibration/grid?"+v.Encode()).Body.Bytes(),
			encode(t, GridResponse{Exact: exact, Params: p, Shares: sh}))
	}
	return bad
}

// TestResponsesMatchIndependentOracle: the server's what-if, solve and
// grid answers equal, byte for byte, those of an oracle that shares no
// environment, database, grid or statement cache with it.
func TestResponsesMatchIndependentOracle(t *testing.T) {
	s := newTestServer(t, nil)
	for _, m := range oracleMismatches(t, s.Handler(), newOracle(t)) {
		t.Error(m)
	}
}

// TestOracleCatchesWrongDatabase plants a bug on the server's side only:
// its databases come from another seed. The oracle must notice.
func TestOracleCatchesWrongDatabase(t *testing.T) {
	env := workload.NewEnv(workload.TinyScale(), vm.DefaultMachineConfig())
	env.Seed++
	s := newTestServer(t, func(c *Config) { c.Env = env })
	if bad := oracleMismatches(t, s.Handler(), newOracle(t)); len(bad) == 0 {
		t.Fatal("a server on a database built from another seed answered exactly as the oracle")
	} else {
		t.Logf("%d mismatches; the first: %s", len(bad), bad[0])
	}
}
