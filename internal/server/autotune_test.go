package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"dbvirt/internal/autotune"
)

func autotuneOpts() *AutotuneOptions {
	return &AutotuneOptions{
		Workloads: []WorkloadRef{
			{Name: "w1", Query: "Q4", Repeat: 2},
			{Name: "w2", Query: "Q13", Repeat: 2},
		},
		MinGain:       0.02,
		ConfirmTicks:  1,
		CooldownTicks: 1,
		Enabled:       true,
	}
}

func TestAutotuneNotConfigured(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	if rec := get(t, h, "/v1/autotune/status"); rec.Code != http.StatusNotFound {
		t.Fatalf("status without autotune: %d, want 404", rec.Code)
	}
	for _, p := range []string{"enable", "disable", "trigger"} {
		if rec := post(t, h, "/v1/autotune/"+p, ""); rec.Code != http.StatusNotFound {
			t.Fatalf("%s without autotune: %d, want 404", p, rec.Code)
		}
	}
}

func TestAutotuneOptionsValidation(t *testing.T) {
	for name, mut := range map[string]func(*AutotuneOptions){
		"one workload":     func(o *AutotuneOptions) { o.Workloads = o.Workloads[:1] },
		"duplicate tenant": func(o *AutotuneOptions) { o.Workloads[1] = o.Workloads[0] },
		"unknown query":    func(o *AutotuneOptions) { o.Workloads[0].Query = "Q99" },
	} {
		opts := autotuneOpts()
		mut(opts)
		env, grid := testEnv(t)
		if _, err := New(Config{Env: env, Grid: grid, Autotune: opts}); err == nil {
			t.Errorf("%s: config accepted, want error", name)
		}
	}
}

// TestAutotuneEndpoints exercises the HTTP surface end to end in-process:
// status, toggling, and synchronous triggered ticks whose decisions land
// in the status log.
func TestAutotuneEndpoints(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Autotune = autotuneOpts() })
	h := s.Handler()

	var st autotune.Status
	rec := get(t, h, "/v1/autotune/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Tick != 0 || len(st.Tenants) != 2 || len(st.Allocation) != 2 {
		t.Fatalf("fresh status: %+v", st)
	}
	if st.Allocation[0].CPU != 0.5 {
		t.Fatalf("managed deployment should start at the equal split, got %+v", st.Allocation)
	}

	// Disabled loops still tick but skip whole.
	if rec := post(t, h, "/v1/autotune/disable", ""); rec.Code != http.StatusOK {
		t.Fatalf("disable: %d", rec.Code)
	}
	var d autotune.Decision
	rec = post(t, h, "/v1/autotune/trigger", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("trigger: %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Action != autotune.ActionSkipped || d.Reason != "disabled" {
		t.Fatalf("disabled trigger decision: %+v", d)
	}

	if rec := post(t, h, "/v1/autotune/enable", ""); rec.Code != http.StatusOK {
		t.Fatalf("enable: %d", rec.Code)
	}
	rec = post(t, h, "/v1/autotune/trigger", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Trigger != autotune.TriggerManual {
		t.Fatalf("manual trigger decision: %+v", d)
	}
	if d.Action != autotune.ActionApplied && d.Action != autotune.ActionSuppressed {
		t.Fatalf("trigger should have resolved, got %+v", d)
	}
	if len(d.Current) != 2 || d.CurrentTotal <= 0 {
		t.Fatalf("resolved decision missing pricing: %+v", d)
	}

	rec = get(t, h, "/v1/autotune/status")
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 2 || st.Resolves != 1 || st.Skips != 1 {
		t.Fatalf("status accounting after two ticks: %+v", st)
	}
	if len(st.Decisions) != 2 || st.Decisions[1].Tick != 2 {
		t.Fatalf("decision log: %+v", st.Decisions)
	}
}

// TestAutotuneDrainStopsTicker: draining must stop the background loop
// goroutine and reject further triggers.
func TestAutotuneDrainStopsTicker(t *testing.T) {
	opts := autotuneOpts()
	opts.Interval = 5 * time.Millisecond
	s := newTestServer(t, func(c *Config) { c.Autotune = opts })

	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(deadline); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case <-s.atDone:
	default:
		t.Fatal("autotune ticker goroutine still running after drain")
	}
	if rec := post(t, s.Handler(), "/v1/autotune/trigger", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("trigger during drain: %d, want 503", rec.Code)
	}
	// Status stays readable during drain, like the other read-only
	// endpoints.
	if rec := get(t, s.Handler(), "/v1/autotune/status"); rec.Code != http.StatusOK {
		t.Fatalf("status during drain: %d, want 200", rec.Code)
	}
}
