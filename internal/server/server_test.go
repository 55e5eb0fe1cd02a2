package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// testEnv is shared across the package's tests: database builds dominate
// test time and every test reads, never mutates, the built databases.
var (
	envOnce    sync.Once
	sharedEnv  *workload.Env
	sharedGrid *calibration.Grid
)

func testEnv(t *testing.T) (*workload.Env, *calibration.Grid) {
	t.Helper()
	envOnce.Do(func() {
		sharedEnv = workload.NewEnv(workload.TinyScale(), vm.DefaultMachineConfig())
		axes := []float64{0.25, 0.5, 0.75, 1.0}
		g, err := calibration.SyntheticGrid(axes, axes, axes)
		if err != nil {
			panic(err)
		}
		sharedGrid = g
	})
	return sharedEnv, sharedGrid
}

func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	env, grid := testEnv(t)
	cfg := Config{Env: env, Grid: grid}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestNewLeavesSharedEnvAlone: New reads its Env and never writes it, so
// servers with different settings can share one Env and its databases.
func TestNewLeavesSharedEnvAlone(t *testing.T) {
	_, grid := testEnv(t)
	env := workload.NewEnv(workload.TinyScale(), vm.DefaultMachineConfig())
	env.Parallelism = 2
	for _, p := range []int{0, 3} {
		if _, err := New(Config{Env: env, Grid: grid, Parallelism: p}); err != nil {
			t.Fatal(err)
		}
		if env.Parallelism != 2 {
			t.Fatalf("New with Parallelism %d set the shared Env's Parallelism to %d", p, env.Parallelism)
		}
	}
}

// gateModel blocks every Cost call until released (or the call's ctx
// dies), so tests can hold requests in flight deterministically.
type gateModel struct {
	inner   core.CostModel
	release chan struct{}
	calls   atomic.Int64
}

func newGateModel(grid *calibration.Grid) *gateModel {
	return &gateModel{inner: &core.WhatIfModel{Grid: grid}, release: make(chan struct{})}
}

func (m *gateModel) Name() string { return m.inner.Name() }

func (m *gateModel) Cost(ctx context.Context, w *core.WorkloadSpec, s vm.Shares) (float64, error) {
	m.calls.Add(1)
	select {
	case <-m.release:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return m.inner.Cost(ctx, w, s)
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

const whatifBody = `{"workloads":[{"query":"Q4","repeat":2},{"query":"Q13","repeat":3}],
	"allocations":[{"cpu":0.5,"memory":0.5,"io":0.5},{"cpu":0.25,"memory":0.75,"io":0.5}]}`

const solveBody = `{"workloads":[{"query":"Q4","repeat":2},{"query":"Q13","repeat":3}],"step":0.25}`

func TestWhatIfValidation(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	cases := []struct {
		name, body string
		wantStatus int
		wantSubstr string
	}{
		{"malformed json", `{`, 400, "malformed"},
		{"unknown field", `{"workload":[]}`, 400, "unknown field"},
		{"no workloads", `{"workloads":[],"allocations":[{"cpu":1,"memory":1,"io":1}]}`, 400, "no workloads"},
		{"no allocations", `{"workloads":[{"query":"Q4"}],"allocations":[]}`, 400, "no allocations"},
		{"unknown query", `{"workloads":[{"query":"Q99"}],"allocations":[{"cpu":1,"memory":1,"io":1}]}`, 400, "unknown query"},
		{"share out of range", `{"workloads":[{"query":"Q4"}],"allocations":[{"cpu":0,"memory":1,"io":1}]}`, 400, "out of range"},
		{"share above one", `{"workloads":[{"query":"Q4"}],"allocations":[{"cpu":1.5,"memory":1,"io":1}]}`, 400, "out of range"},
		{"negative timeout", `{"workloads":[{"query":"Q4"}],"allocations":[{"cpu":1,"memory":1,"io":1}],"timeout_ms":-1}`, 400, "timeout"},
		{"excess repeat", `{"workloads":[{"query":"Q4","repeat":65}],"allocations":[{"cpu":1,"memory":1,"io":1}]}`, 400, "repeat"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, "/v1/whatif", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("non-JSON error body: %s", rec.Body)
			}
			if !strings.Contains(e.Error, tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantSubstr)
			}
		})
	}

	// Wrong method on a known path.
	if rec := get(t, h, "/v1/whatif"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/whatif: status %d, want 405", rec.Code)
	}
}

func TestWhatIfMatchesDirectCostMatrix(t *testing.T) {
	s := newTestServer(t, nil)
	rec := post(t, s.Handler(), "/v1/whatif", whatifBody)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp WhatIfResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model == "" || len(resp.Costs) != 2 || len(resp.Costs[0]) != 2 {
		t.Fatalf("unexpected shape: %+v", resp)
	}

	// The same sweep computed directly through the cost model must agree
	// exactly: the server adds routing, not arithmetic.
	env, grid := testEnv(t)
	var specs []*core.WorkloadSpec
	for _, q := range []struct {
		name string
		n    int
	}{{"Q4", 2}, {"Q13", 3}} {
		db, err := env.DB("srv-" + q.name) // the server's own database names
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, &core.WorkloadSpec{
			Name:       fmt.Sprintf("%sx%d", q.name, q.n),
			Statements: workload.Repeat(q.name, workload.Query(q.name), q.n).Statements,
			DB:         db,
		})
	}
	want, err := core.CostMatrix(context.Background(), &core.WhatIfModel{Grid: grid}, specs,
		[]vm.Shares{{CPU: 0.5, Memory: 0.5, IO: 0.5}, {CPU: 0.25, Memory: 0.75, IO: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if resp.Costs[i][j] != want[i][j] {
				t.Fatalf("cost[%d][%d] = %g, want %g", i, j, resp.Costs[i][j], want[i][j])
			}
		}
	}
}

func TestGridEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	rec := get(t, h, "/v1/calibration/grid?cpu=0.5&mem=0.5&io=0.5")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp GridResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Exact {
		t.Fatalf("0.5/0.5/0.5 is a lattice point, got exact=false")
	}

	rec = get(t, h, "/v1/calibration/grid?cpu=0.4&mem=0.5&io=0.5")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Exact {
		t.Fatalf("0.4 is off-lattice, got exact=true")
	}

	if rec := get(t, h, "/v1/calibration/grid?cpu=0.5&mem=0.5"); rec.Code != 400 {
		t.Fatalf("missing io: status %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/v1/calibration/grid?cpu=2&mem=0.5&io=0.5"); rec.Code != 400 {
		t.Fatalf("out-of-range cpu: status %d, want 400", rec.Code)
	}
}

// pollJob polls the job endpoint until the job is terminal.
func pollJob(t *testing.T, h http.Handler, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rec := get(t, h, "/v1/jobs/"+id)
		if rec.Code != 200 {
			t.Fatalf("poll %s: status %d: %s", id, rec.Code, rec.Body)
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case jobDone, jobFailed, jobCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, st.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func submitSolve(t *testing.T, h http.Handler, body string) string {
	t.Helper()
	rec := post(t, h, "/v1/solve", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("solve: status %d: %s", rec.Code, rec.Body)
	}
	var acc SolveAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.JobID == "" {
		t.Fatal("empty job_id")
	}
	return acc.JobID
}

func TestSolveJobLifecycle(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	id := submitSolve(t, h, solveBody)
	st := pollJob(t, h, id, 30*time.Second)
	if st.State != jobDone {
		t.Fatalf("state %s (error %q), want done", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Algorithm != "dp" || len(st.Result.Allocation) != 2 {
		t.Fatalf("unexpected result: %+v", st.Result)
	}

	// The job's result must equal a direct synchronous solve of the same
	// problem — the daemon's async plumbing may not change answers.
	env, grid := testEnv(t)
	var specs []*core.WorkloadSpec
	for _, q := range []struct {
		name string
		n    int
	}{{"Q4", 2}, {"Q13", 3}} {
		db, err := env.DB("srv-" + q.name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, &core.WorkloadSpec{
			Name:       fmt.Sprintf("%sx%d", q.name, q.n),
			Statements: workload.Repeat(q.name, workload.Query(q.name), q.n).Statements,
			DB:         db,
		})
	}
	want, err := core.SolveDP(context.Background(),
		&core.Problem{Workloads: specs, Resources: []vm.Resource{vm.CPU}, Step: 0.25},
		&core.WhatIfModel{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(st.Result)
	wantJSON, _ := json.Marshal(solveResult(want))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("async result diverges from direct solve:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	if rec := get(t, h, "/v1/jobs/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", rec.Code)
	}
}

func TestSolveValidation(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	for name, body := range map[string]string{
		"one workload":  `{"workloads":[{"query":"Q4"}]}`,
		"bad algo":      `{"workloads":[{"query":"Q4"},{"query":"Q13"}],"algo":"annealing"}`,
		"bad step":      `{"workloads":[{"query":"Q4"},{"query":"Q13"}],"step":0.7}`,
		"bad resource":  `{"workloads":[{"query":"Q4"},{"query":"Q13"}],"resources":["gpu"]}`,
		"unknown query": `{"workloads":[{"query":"Q4"},{"query":"NOPE"}]}`,
		// Shapes the solver rejects are refused before a job is queued.
		"uneven step":        `{"workloads":[{"query":"Q4"},{"query":"Q13"}],"step":0.3}`,
		"duplicate resource": `{"workloads":[{"query":"Q4"},{"query":"Q13"}],"resources":["cpu","cpu"]}`,
		"infeasible step":    `{"workloads":[{"query":"Q4"},{"query":"Q13"},{"query":"Q6"}],"step":0.5}`,
	} {
		if rec := post(t, h, "/v1/solve", body); rec.Code != 400 {
			t.Fatalf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body)
		}
	}
}

func TestJobCancel(t *testing.T) {
	_, grid := testEnv(t)
	gate := newGateModel(grid)
	s := newTestServer(t, func(c *Config) { c.Model = gate; c.JobWorkers = 1 })
	h := s.Handler()

	// First job occupies the single worker at the gate; the second stays
	// queued, so both cancellation paths are exercised.
	running := submitSolve(t, h, solveBody)
	queued := submitSolve(t, h, `{"workloads":[{"query":"Q4","repeat":1},{"query":"Q13","repeat":1}]}`)

	// Wait until the first job is actually running (the model got called).
	for deadline := time.Now().Add(5 * time.Second); gate.calls.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}

	req := httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+queued, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("cancel queued: status %d: %s", rec.Code, rec.Body)
	}
	if st := pollJob(t, h, queued, 5*time.Second); st.State != jobCanceled {
		t.Fatalf("queued job state %s, want canceled", st.State)
	}

	req = httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+running, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("cancel running: status %d: %s", rec.Code, rec.Body)
	}
	if st := pollJob(t, h, running, 5*time.Second); st.State != jobCanceled {
		t.Fatalf("running job state %s, want canceled", st.State)
	}
	close(gate.release)
}

func TestWhatIfAdmission429(t *testing.T) {
	_, grid := testEnv(t)
	gate := newGateModel(grid)
	s := newTestServer(t, func(c *Config) {
		c.Model = gate
		c.MaxInflight = 1
		c.MaxQueue = 1
	})
	h := s.Handler()

	// Distinct bodies: identical ones would coalesce instead of queueing.
	body := func(i int) string {
		return fmt.Sprintf(`{"workloads":[{"query":"Q4","repeat":%d}],"allocations":[{"cpu":0.5,"memory":0.5,"io":0.5}]}`, i+1)
	}

	var wg sync.WaitGroup
	statuses := make([]int, 3)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i] = post(t, h, "/v1/whatif", body(i)).Code
		}(i)
	}
	// Wait until the leader is inside the model and the second request is
	// parked in the queue, then the third must bounce.
	deadline := time.Now().Add(5 * time.Second)
	for gate.calls.Load() == 0 || s.lim.pressure.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached (calls=%d pressure=%d)", gate.calls.Load(), s.lim.pressure.Load())
		}
		time.Sleep(time.Millisecond)
	}
	rec := post(t, h, "/v1/whatif", body(2))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != retryAfter {
		t.Fatalf("Retry-After %q, want %q", ra, retryAfter)
	}

	close(gate.release)
	wg.Wait()
	for i, code := range statuses[:2] {
		if code != 200 {
			t.Fatalf("request %d: status %d, want 200", i, code)
		}
	}
}

func TestWhatIfDeadline504(t *testing.T) {
	_, grid := testEnv(t)
	gate := newGateModel(grid) // never released: the deadline must fire
	s := newTestServer(t, func(c *Config) { c.Model = gate })
	rec := post(t, s.Handler(), "/v1/whatif",
		`{"workloads":[{"query":"Q4"}],"allocations":[{"cpu":0.5,"memory":0.5,"io":0.5}],"timeout_ms":30}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", rec.Code, rec.Body)
	}
}

func TestCoalesceIdenticalSweeps(t *testing.T) {
	_, grid := testEnv(t)
	gate := newGateModel(grid)
	s := newTestServer(t, func(c *Config) { c.Model = gate })
	h := s.Handler()

	hitsBefore := mCoalesceHits.Value()

	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(t, h, "/v1/whatif", whatifBody)
			codes[i], bodies[i] = rec.Code, rec.Body.Bytes()
		}(i)
	}
	// Let the leader enter the model and the joiners pile onto its entry,
	// then open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for gate.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no leader reached the model")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if hits := mCoalesceHits.Value() - hitsBefore; hits < n-1 {
		t.Fatalf("coalesce hits = %d, want >= %d", hits, n-1)
	}
	// One leader computed: 2 workloads x 2 allocations = 4 model calls.
	if calls := gate.calls.Load(); calls != 4 {
		t.Fatalf("model calls = %d, want 4 (one leader sweep)", calls)
	}
}

func TestDrainWithInflightJob(t *testing.T) {
	_, grid := testEnv(t)
	gate := newGateModel(grid)
	s := newTestServer(t, func(c *Config) { c.Model = gate; c.JobWorkers = 1 })
	h := s.Handler()

	id := submitSolve(t, h, solveBody)
	deadline := time.Now().Add(5 * time.Second)
	for gate.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining must be observable before the in-flight job finishes.
	deadline = time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}

	// New work is refused...
	if rec := post(t, h, "/v1/solve", solveBody); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain: status %d, want 503", rec.Code)
	}
	if rec := post(t, h, "/v1/whatif", whatifBody); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("whatif during drain: status %d, want 503", rec.Code)
	}
	// ...but polling stays up: an accepted job's result must remain
	// reachable through the whole drain.
	if rec := get(t, h, "/v1/jobs/"+id); rec.Code != 200 {
		t.Fatalf("poll during drain: status %d", rec.Code)
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", rec.Code)
	}

	close(gate.release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The accepted job ran to completion — drain keeps the 202 promise.
	if st := pollJob(t, h, id, 5*time.Second); st.State != jobDone {
		t.Fatalf("job after drain: state %s (error %q), want done", st.State, st.Error)
	}
}

func TestDrainDeadlineCancelsJobs(t *testing.T) {
	_, grid := testEnv(t)
	gate := newGateModel(grid) // never released
	s := newTestServer(t, func(c *Config) { c.Model = gate; c.JobWorkers = 1 })
	h := s.Handler()

	id := submitSolve(t, h, solveBody)
	deadline := time.Now().Add(5 * time.Second)
	for gate.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil despite a stuck job")
	}
	// The stuck job was canceled, not dropped: it is terminal and says so.
	if st := pollJob(t, h, id, 5*time.Second); st.State != jobCanceled {
		t.Fatalf("stuck job state %s, want canceled", st.State)
	}
}

func TestCheckpointGridServing(t *testing.T) {
	// End to end: calibrate a small grid into a grid file, then serve
	// /v1/calibration/grid straight from the file.
	env := workload.NewEnv(workload.TinyScale(), vm.DefaultMachineConfig())
	axes := []float64{0.5, 1.0}
	ck := t.TempDir() + "/grid.json"
	g1, err := env.Calibrator().CalibrateGridOpts(context.Background(), axes, axes, axes,
		calibration.GridOptions{CheckpointPath: ck})
	if err != nil {
		t.Fatalf("CalibrateGridOpts: %v", err)
	}
	f, err := os.Open(ck)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g2, err := calibration.LoadGrid(f)
	if err != nil {
		t.Fatalf("LoadGrid: %v", err)
	}
	p1, _ := g1.Lookup(vm.Shares{CPU: 0.5, Memory: 1, IO: 0.5})
	p2, ok := g2.Lookup(vm.Shares{CPU: 0.5, Memory: 1, IO: 0.5})
	if !ok || p1 != p2 {
		t.Fatalf("checkpoint round-trip changed params: %+v vs %+v (exact=%v)", p1, p2, ok)
	}

	s, err := New(Config{Env: env, Grid: g2})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, s.Handler(), "/v1/calibration/grid?cpu=0.5&mem=1&io=0.5")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp GridResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Exact || resp.Params != p1 {
		t.Fatalf("served params diverge from calibrated ones: %+v vs %+v", resp.Params, p1)
	}
}
