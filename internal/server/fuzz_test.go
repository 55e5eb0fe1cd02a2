package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// checkStatus fails on a 5xx other than 503, and 504 unless the request
// body set its own timeout_ms: a malformed or oversized body is the
// client's error, never the server's. 429 is not a 5xx.
func checkStatus(t *testing.T, what, body string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if code := rec.Code; code >= 500 && code != http.StatusServiceUnavailable &&
		!(code == http.StatusGatewayTimeout && strings.Contains(body, "timeout_ms")) {
		t.Fatalf("%s: status %d: %s", what, code, rec.Body)
	}
}

// FuzzWhatIfRoute posts arbitrary bodies to /v1/whatif. No request may
// panic or fail with a 5xx other than 429 and 503 (504 when the body set
// timeout_ms).
func FuzzWhatIfRoute(f *testing.F) {
	f.Add(`{
  "workloads":   [{"query":"Q4","repeat":3}, {"query":"Q13","repeat":9}],
  "allocations": [{"cpu":0.5,"memory":0.5,"io":0.5},
                  {"cpu":0.25,"memory":0.75,"io":0.5}]}`) // README's example
	f.Add(whatifBody)
	f.Add(`{"workloads":[{"query":"Q99"}],"allocations":[{"cpu":1,"memory":1,"io":1}],"timeout_ms":1}`)
	f.Add(`{"workloads":[{"query":"Q6"}],"allocations":[{"cpu":0,"memory":0.5,"io":0.5}]}`)
	f.Add(`{"workloads":[],"allocations":[]}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, body string) {
		s := newTestServer(t, nil)
		t.Cleanup(func() { s.Drain(context.Background()) })
		h := s.Handler()
		checkStatus(t, "POST /v1/whatif", body, post(t, h, "/v1/whatif", body))
	})
}

// FuzzSolveRoute posts arbitrary bodies to /v1/solve and polls every
// accepted job through GET /v1/jobs/{id} until it ends, cancelling it
// after a bound. Besides the what-if route's status rule, a job the
// server accepted must answer 200 on every poll.
func FuzzSolveRoute(f *testing.F) {
	f.Add(`{
  "workloads":[{"query":"Q4","repeat":3},{"query":"Q13","repeat":9}],
  "algo":"dp","step":0.25}`) // README's example
	f.Add(solveBody)
	f.Add(`{"workloads":[{"query":"Q1"},{"query":"Q6"},{"query":"Q4"}],"algo":"exhaustive","resources":["cpu","memory"],"step":0.25}`)
	f.Add(`{"workloads":[{"query":"Q1"},{"query":"Q6"}],"algo":"greedy","step":0.25,"timeout_ms":1}`)
	f.Add(`{"workloads":[{"query":"Q1"}],"step":0.25}`)
	f.Add(`{"workloads":[{"query":"Q1"},{"query":"Q6"}],"step":0}`)
	f.Fuzz(func(t *testing.T, body string) {
		s := newTestServer(t, nil)
		t.Cleanup(func() { s.Drain(context.Background()) })
		h := s.Handler()
		rec := post(t, h, "/v1/solve", body)
		checkStatus(t, "POST /v1/solve", body, rec)
		if rec.Code != http.StatusAccepted {
			return
		}
		var acc SolveAccepted
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatalf("202 body %q: %v", rec.Body, err)
		}
		path := "/v1/jobs/" + acc.JobID
		deadline := time.Now().Add(10 * time.Second)
		cancelled := false
		for {
			rec := get(t, h, path)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
			}
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			switch st.State {
			case jobDone, jobFailed, jobCanceled:
				return
			}
			if !cancelled && time.Now().After(deadline) {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, path, nil))
				cancelled = true
			}
			time.Sleep(time.Millisecond)
		}
	})
}
