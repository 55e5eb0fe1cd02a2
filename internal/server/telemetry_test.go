package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dbvirt/internal/obs"
	"dbvirt/internal/telemetry"
)

// getHdr is get plus arbitrary request headers.
func getHdr(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func postHdr(t *testing.T, h http.Handler, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestWhatIfFeedsTelemetry drives named and unnamed what-if traffic and
// checks that the per-tenant sketches and /debug/telemetry
// reflect it — including for coalesced repeats of an identical request.
func TestWhatIfFeedsTelemetry(t *testing.T) {
	hub := telemetry.NewHub(telemetry.Config{Registry: obs.NewRegistry()})
	s := newTestServer(t, func(c *Config) { c.Telemetry = hub })
	h := s.Handler()

	named := `{"workloads":[{"name":"acme","query":"Q4","repeat":2}],
		"allocations":[{"cpu":0.5,"memory":0.5,"io":0.5}]}`
	for i := 0; i < 3; i++ {
		if rec := post(t, h, "/v1/whatif", named); rec.Code != 200 {
			t.Fatalf("whatif %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if rec := post(t, h, "/v1/whatif", whatifBody); rec.Code != 200 {
		t.Fatalf("unnamed whatif: status %d: %s", rec.Code, rec.Body)
	}

	snaps := hub.Snapshot()
	byName := map[string]telemetry.TenantSnapshot{}
	for _, sn := range snaps {
		byName[sn.Name] = sn
	}
	acme, ok := byName["acme"]
	if !ok {
		t.Fatalf("no tenant %q in snapshot %+v", "acme", snaps)
	}
	// Q4x2 is two statements; three requests (two of them coalesced or
	// memoized repeats) must all count.
	if acme.Updates != 6 {
		t.Fatalf("acme sketch updates = %d, want 6", acme.Updates)
	}
	// Unnamed workloads land under their canonical QUERYxN identity.
	if _, ok := byName["Q4x2"]; !ok {
		t.Fatalf("no canonical tenant Q4x2 in %v", names(snaps))
	}
	if _, ok := byName["Q13x3"]; !ok {
		t.Fatalf("no canonical tenant Q13x3 in %v", names(snaps))
	}

	// /debug/telemetry serves the same snapshot as JSON.
	rec := get(t, h, "/debug/telemetry")
	if rec.Code != 200 {
		t.Fatalf("/debug/telemetry: status %d", rec.Code)
	}
	var body struct {
		Tenants []telemetry.TenantSnapshot `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/debug/telemetry: %v", err)
	}
	if len(body.Tenants) != len(snaps) {
		t.Fatalf("/debug/telemetry tenants = %d, want %d", len(body.Tenants), len(snaps))
	}
}

func names(snaps []telemetry.TenantSnapshot) []string {
	out := make([]string, len(snaps))
	for i, sn := range snaps {
		out[i] = sn.Name
	}
	return out
}

// TestMetricsEndpointProm scrapes GET /metrics after live traffic and
// validates the body with the strict Prometheus text parser.
func TestMetricsEndpointProm(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	if rec := post(t, h, "/v1/whatif", whatifBody); rec.Code != 200 {
		t.Fatalf("whatif: status %d: %s", rec.Code, rec.Body)
	}

	rec := get(t, h, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	samples, err := obs.ParsePrometheusText(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("invalid Prometheus exposition: %v\n%s", err, rec.Body)
	}
	// The default server hub registers on obs.Global, so the scrape must
	// carry a non-zero telemetry counter.
	v, ok := samples["telemetry_sketch_updates"]
	if !ok {
		t.Fatalf("telemetry_sketch_updates missing from scrape (%d samples)", len(samples))
	}
	if v.Value <= 0 {
		t.Fatalf("telemetry_sketch_updates = %v, want > 0", v.Value)
	}
	if _, ok := samples["server_http_whatif_count"]; !ok {
		t.Fatal("server_http_whatif_count missing from scrape")
	}
}

// TestDebugMetricsDeterministicJSON checks the /debug/metrics contract:
// explicit content type and a body whose map keys are already sorted, so
// equal registry states produce byte-identical documents.
func TestDebugMetricsDeterministicJSON(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	rec := get(t, h, "/debug/metrics")
	if rec.Code != 200 {
		t.Fatalf("/debug/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("body is not a MetricsSnapshot: %v", err)
	}
	// Re-encoding the decoded snapshot must reproduce the body exactly:
	// encoding/json sorts map keys, so this catches any non-deterministic
	// hand-rolled encoding creeping in.
	want, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(rec.Body.String())
	if got != string(want) {
		t.Fatalf("/debug/metrics body is not canonical JSON:\ngot:  %.200s\nwant: %.200s", got, want)
	}
}

// TestTraceparentPropagation checks the W3C trace-context contract on an
// instrumented route: a valid incoming traceparent is continued (same
// trace ID, fresh span ID), a malformed one starts a new trace, and the
// identity lands in the flight recorder.
func TestTraceparentPropagation(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	rec := postHdr(t, h, "/v1/whatif", whatifBody, map[string]string{"traceparent": parent})
	if rec.Code != 200 {
		t.Fatalf("whatif: status %d: %s", rec.Code, rec.Body)
	}
	echoed := rec.Header().Get("traceparent")
	sc, err := obs.ParseTraceparent(echoed)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", echoed, err)
	}
	if got := sc.TraceIDString(); got != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("trace ID not continued: got %s", got)
	}
	if sc.SpanIDString() == "00f067aa0ba902b7" {
		t.Fatal("span ID not re-minted for the server hop")
	}

	// Malformed header: the server starts a fresh, valid trace.
	rec = postHdr(t, h, "/v1/whatif", whatifBody, map[string]string{"traceparent": "garbage"})
	if rec.Code != 200 {
		t.Fatalf("whatif: status %d", rec.Code)
	}
	fresh, err := obs.ParseTraceparent(rec.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("fresh traceparent: %v", err)
	}
	if fresh.TraceIDString() == sc.TraceIDString() {
		t.Fatal("malformed parent must not inherit a trace ID")
	}

	// The continued request must appear in the flight recorder under its
	// trace ID (obs.Flight is process-global, so scan rather than count).
	found := false
	for _, fr := range obs.Flight.Snapshot() {
		if fr.TraceID == "0123456789abcdef0123456789abcdef" && fr.Path == "/v1/whatif" && fr.Status == 200 {
			found = true
		}
	}
	if !found {
		t.Fatal("continued request missing from flight recorder")
	}

	// And /debug/flightrecorder serves it.
	frRec := get(t, h, "/debug/flightrecorder")
	if frRec.Code != 200 {
		t.Fatalf("/debug/flightrecorder: status %d", frRec.Code)
	}
	var frBody struct {
		Records []obs.FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(frRec.Body.Bytes(), &frBody); err != nil {
		t.Fatalf("/debug/flightrecorder: %v", err)
	}
	if len(frBody.Records) == 0 {
		t.Fatal("/debug/flightrecorder: no records")
	}
}

// TestHealthzBody checks the enriched /healthz identity fields.
func TestHealthzBody(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	rec := get(t, h, "/healthz")
	if rec.Code != 200 {
		t.Fatalf("/healthz: status %d", rec.Code)
	}
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	if hr.Status != "ok" || hr.Draining {
		t.Fatalf("healthy body = %+v", hr)
	}
	if hr.Version == "" {
		t.Fatal("healthz: empty version")
	}
	if hr.UptimeSeconds < 0 {
		t.Fatalf("healthz: negative uptime %f", hr.UptimeSeconds)
	}
}

// TestSolveJobCarriesTrace checks that the traceparent of the submitting
// request is captured on the async job so the solver span joins the
// distributed trace.
func TestSolveJobCarriesTrace(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	const parent = "00-aaaabbbbccccddddaaaabbbbccccdddd-1122334455667788-01"
	rec := postHdr(t, h, "/v1/solve", solveBody, map[string]string{"traceparent": parent})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("solve: status %d: %s", rec.Code, rec.Body)
	}
	var sr SolveAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatalf("solve body: %v", err)
	}
	s.jobs.mu.Lock()
	j := s.jobs.jobs[sr.JobID]
	s.jobs.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s not found", sr.JobID)
	}
	if got := j.sc.TraceIDString(); got != "aaaabbbbccccddddaaaabbbbccccdddd" {
		t.Fatalf("job trace ID = %s, want the submitter's", got)
	}
}
