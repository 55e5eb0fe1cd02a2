package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbvirt/internal/core"
	"dbvirt/internal/engine"
	"dbvirt/internal/obs"
	"dbvirt/internal/vm"
)

// TestWeightIsNotCostIdentity: a tenant that changes only its weight or
// SLO is served from what the first request paid for — every reference
// resolves to the one interned spec of its content, the optimizer is not
// called again — while placement's PricingKey reads as it always has.
func TestWeightIsNotCostIdentity(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	body := func(weight, slo float64) string {
		return fmt.Sprintf(`{"workloads":[{"query":"q13full","repeat":3,"weight":%g,"slo_seconds":%g},{"query":"Q4"}],
			"allocations":[{"cpu":0.5,"memory":0.5,"io":0.5},{"cpu":0.31,"memory":0.62,"io":0.47}]}`, weight, slo)
	}
	first := post(t, h, "/v1/whatif", body(0, 0))
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	calls := obs.Global.Counter("optimizer.optimize.calls")
	before := calls.Value()
	for i := 1; i <= 50; i++ {
		rec := post(t, h, "/v1/whatif", body(1+float64(i)/7, float64(i)/100))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if rec.Body.String() != first.Body.String() {
			t.Fatalf("weight %d changed the cost matrix:\n%s\nvs\n%s", i, rec.Body, first.Body)
		}
	}
	if got := calls.Value() - before; got != 0 {
		t.Errorf("50 re-weighted sweeps called the optimizer %d times, want 0", got)
	}
	base, err := s.spec(WorkloadRef{Query: "Q13FULL", Repeat: 3})
	if err != nil {
		t.Fatal(err)
	}
	again, _ := s.spec(WorkloadRef{Query: " q13full ", Repeat: 3})
	if again != base || core.Intern("other", base.DB, base.Statements) != base {
		t.Error("an unweighted reference did not resolve to the interned spec")
	}
	view, _ := s.spec(WorkloadRef{Query: "Q13FULL", Repeat: 3, Weight: 2.5, SLOSeconds: 0.125})
	if view == base || view.Base() != base || view.Weight != 2.5 || view.SLOSeconds != 0.125 {
		t.Errorf("weighted reference: got %+v, want a view of the interned spec", view)
	}
	if got, want := view.PricingKey(), "Q13FULLx3|w=2.500000000|slo=0.125000000"; got != want {
		t.Errorf("PricingKey %q, want %q", got, want)
	}
	if got, want := base.PricingKey(), "Q13FULLx3|w=0.000000000|slo=0.000000000"; got != want {
		t.Errorf("PricingKey %q, want %q", got, want)
	}
}

// brokenQ6Model prices Q6 workloads through the what-if model as a spec
// whose database has no catalog, which panics inside the model.
type brokenQ6Model struct{ core.CostModel }

func (m brokenQ6Model) Cost(ctx context.Context, w *core.WorkloadSpec, sh vm.Shares) (float64, error) {
	if strings.HasPrefix(w.Name, "Q6") {
		w = &core.WorkloadSpec{Name: w.Name, Statements: []string{"SELECT 1"}, DB: &engine.Database{}}
	}
	return m.CostModel.Cost(ctx, w, sh)
}

// TestModelPanicIs500: a panic under the default cost model — here a spec
// whose database has no catalog — fails the request with a 500 and the
// job with an error; the connection is answered, not dropped.
func TestModelPanicIs500(t *testing.T) {
	_, grid := testEnv(t)
	s := newTestServer(t, func(c *Config) { c.Model = brokenQ6Model{&core.WhatIfModel{Grid: grid}} })
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/whatif", "application/json", strings.NewReader(
		`{"workloads":[{"query":"Q4"},{"query":"Q6","weight":2}],"allocations":[{"cpu":0.5,"memory":0.5,"io":0.5}]}`))
	if err != nil {
		t.Fatalf("connection dropped: %v", err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e errorResponse
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(payload, &e) != nil || !strings.Contains(e.Error, "panicked") {
		t.Fatalf("status %d, body %s; want 500 naming the panic", resp.StatusCode, payload)
	}

	id := submitSolve(t, s.Handler(), `{"workloads":[{"query":"Q4"},{"query":"Q6"}]}`)
	if st := pollJob(t, s.Handler(), id, 30*time.Second); st.State != jobFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("job %+v; want failed, naming the panic", st)
	}
}

// namePanicModel prices like the default model and panics when asked its
// name, which computeWhatIf does outside any cost model's own recover.
type namePanicModel struct {
	core.CostModel
	names atomic.Int64
}

func (m *namePanicModel) Name() string {
	m.names.Add(1)
	panic("injected Name panic")
}

// TestLeaderPanicFreesCoalescedKey: a panic in a coalescer leader, outside
// the cost model, is that request's 500 — and the key is not left in
// flight, so an identical request is computed again and answered promptly
// instead of joining a computation that will never finish.
func TestLeaderPanicFreesCoalescedKey(t *testing.T) {
	_, grid := testEnv(t)
	model := &namePanicModel{CostModel: &core.WhatIfModel{Grid: grid}}
	s := newTestServer(t, func(c *Config) { c.Model = model })
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const body = `{"workloads":[{"query":"Q4"},{"query":"Q6"}],"allocations":[{"cpu":0.5,"memory":0.5,"io":0.5}],"timeout_ms":5000}`
	for i := int64(1); i <= 2; i++ {
		start := time.Now()
		resp, err := http.Post(srv.URL+"/v1/whatif", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: connection dropped: %v", i, err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(payload), "panicked") {
			t.Fatalf("request %d: status %d, body %s; want 500 naming the panic", i, resp.StatusCode, payload)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("request %d took %v: it waited on the panicked leader's key", i, took)
		}
		if got := model.names.Load(); got != i {
			t.Fatalf("after request %d the sweep was computed %d times, want %d", i, got, i)
		}
	}
}

// TestJobEvictionFromHead: the retention cap holds, queued and running
// jobs outlive any number of later submissions, and at the cap a submit
// examines one entry plus the live jobs it meets at the head.
func TestJobEvictionFromHead(t *testing.T) {
	const maxJobs = 16
	// No workers: a job stays queued until the test moves it.
	m := newJobManager(0, 4096, maxJobs, nil)
	defer m.drain(context.Background())
	submit := func() *job {
		t.Helper()
		j, err := m.submit(SolveRequest{}, obs.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	queued, running := submit(), submit()
	running.mu.Lock()
	running.state = jobRunning
	running.mu.Unlock()
	for i := 0; i < 300; i++ {
		before := m.evictScanned
		submit().finish(jobDone, nil, "")
		if n := len(m.jobs); n > maxJobs {
			t.Fatalf("submit %d: %d jobs retained, cap %d", i, n, maxJobs)
		}
		if got := m.evictScanned - before; got > 3 {
			t.Fatalf("submit %d examined %d entries; want at most 1 + the 2 live jobs", i, got)
		}
		if len(m.order) != len(m.jobs) {
			t.Fatalf("submit %d: order holds %d ids for %d jobs", i, len(m.order), len(m.jobs))
		}
	}
	if got := m.evictScanned; got > 300+2*(300/(maxJobs-2)+1) {
		t.Errorf("300 submits examined %d entries", got)
	}
	for _, j := range []*job{queued, running} {
		if kept, ok := m.get(j.id); !ok || kept != j {
			t.Errorf("live job %s was evicted", j.id)
		}
	}
	if _, ok := m.get("j-3"); ok {
		t.Error("the oldest finished job is still retained")
	}

	// Only live jobs: nothing may be dropped, and the scan still ends.
	live := newJobManager(0, 64, 4, nil)
	defer live.drain(context.Background())
	for i := 0; i < 10; i++ {
		if _, err := live.submit(SolveRequest{}, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(live.jobs) != 10 {
		t.Errorf("%d of 10 queued jobs retained", len(live.jobs))
	}
}
