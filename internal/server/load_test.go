package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// do issues one in-process request without any testing.T plumbing, so it
// is safe to call from load-test worker goroutines.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// postRetry drives one POST through deliberate 429s to completion.
func postRetry(h http.Handler, path, body string) (*httptest.ResponseRecorder, error) {
	for attempt := 0; ; attempt++ {
		rec := do(h, http.MethodPost, path, body)
		if rec.Code != http.StatusTooManyRequests {
			return rec, nil
		}
		if attempt > 5000 {
			return nil, fmt.Errorf("POST %s: still 429 after %d attempts", path, attempt)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pollJobErr polls a job to a terminal state, returning a synthetic
// "poll-timeout" state on deadline instead of failing the test directly.
func pollJobErr(h http.Handler, id string, timeout time.Duration) JobStatus {
	deadline := time.Now().Add(timeout)
	for {
		rec := do(h, http.MethodGet, "/v1/jobs/"+id, "")
		var st JobStatus
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err == nil {
				switch st.State {
				case jobDone, jobFailed, jobCanceled:
					return st
				}
			}
		}
		if time.Now().After(deadline) {
			st.State = "poll-timeout"
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConcurrentMixedLoad is the serving-scale acceptance test: 512
// mixed requests from 16 goroutines against one daemon must produce zero
// unexpected errors (deliberate 429s retried), responses byte-identical
// to a serial baseline computed on a separate server over the same data,
// a nonzero coalesce-hit count, and a clean drain afterwards. Run with
// -race: the point is that the sharing — prepared statements, the cost
// memo, the coalescer — is free of data races, not just fast.
func TestConcurrentMixedLoad(t *testing.T) {
	env, grid := testEnv(t)

	// Serial baseline on its own server instance: same environment, fresh
	// caches, requests one at a time. Anything the concurrent server
	// returns must match these bytes exactly.
	serial, err := New(Config{Env: env, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}

	// The request mix: 6 distinct what-if sweeps and 2 distinct solve
	// problems. Few distinct keys under many requests is the workload
	// coalescing exists for.
	whatifs := make([]string, 6)
	for i := range whatifs {
		whatifs[i] = fmt.Sprintf(`{"workloads":[{"query":"Q4","repeat":%d},{"query":"Q13","repeat":%d}],`+
			`"allocations":[{"cpu":0.25,"memory":0.5,"io":0.5},{"cpu":0.5,"memory":0.5,"io":0.5},{"cpu":0.75,"memory":0.5,"io":0.5}]}`,
			i%3+1, i/3+2)
	}
	solves := []string{
		`{"workloads":[{"query":"Q4","repeat":2},{"query":"Q13","repeat":3}],"step":0.25}`,
		`{"workloads":[{"query":"Q6","repeat":1},{"query":"Q1","repeat":1}],"algo":"greedy","step":0.25}`,
	}

	wantWhatif := make([][]byte, len(whatifs))
	for i, body := range whatifs {
		rec := do(serial.Handler(), http.MethodPost, "/v1/whatif", body)
		if rec.Code != 200 {
			t.Fatalf("serial whatif %d: status %d: %s", i, rec.Code, rec.Body)
		}
		wantWhatif[i] = append([]byte(nil), rec.Body.Bytes()...)
	}
	wantSolve := make([][]byte, len(solves))
	for i, body := range solves {
		id := submitSolve(t, serial.Handler(), body)
		st := pollJob(t, serial.Handler(), id, 30*time.Second)
		if st.State != jobDone {
			t.Fatalf("serial solve %d: state %s (%s)", i, st.State, st.Error)
		}
		b, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		wantSolve[i] = b
	}

	// The hammered server: limits small enough that admission control
	// genuinely engages, large enough that retries converge fast.
	s := newTestServer(t, func(c *Config) {
		c.MaxInflight = 2
		c.MaxQueue = 4
		c.JobWorkers = 2
		c.JobQueue = 4
	})
	h := s.Handler()
	hitsBefore := mCoalesceHits.Value()
	rejectsBefore := mAdmissionReject.Value() + mJobsRejected.Value()

	const (
		workers = 16
		total   = 512
	)
	errc := make(chan error, total)
	work := make(chan int, total)
	for i := 0; i < total; i++ {
		work <- i
	}
	close(work)

	handle := func(i int) error {
		if i%4 == 3 { // every 4th request is a solve
			si := i % len(solves)
			rec, err := postRetry(h, "/v1/solve", solves[si])
			if err != nil {
				return err
			}
			if rec.Code != http.StatusAccepted {
				return fmt.Errorf("solve %d: status %d: %s", i, rec.Code, rec.Body)
			}
			var acc SolveAccepted
			if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
				return err
			}
			st := pollJobErr(h, acc.JobID, 60*time.Second)
			if st.State != jobDone {
				return fmt.Errorf("solve %d job %s: state %s (%s)", i, acc.JobID, st.State, st.Error)
			}
			got, err := json.Marshal(st.Result)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, wantSolve[si]) {
				return fmt.Errorf("solve %d: result diverges from serial:\n got %s\nwant %s", i, got, wantSolve[si])
			}
			return nil
		}
		wi := i % len(whatifs)
		rec, err := postRetry(h, "/v1/whatif", whatifs[wi])
		if err != nil {
			return err
		}
		if rec.Code != 200 {
			return fmt.Errorf("whatif %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), wantWhatif[wi]) {
			return fmt.Errorf("whatif %d: body diverges from serial:\n got %s\nwant %s", i, rec.Body, wantWhatif[wi])
		}
		return nil
	}

	for w := 0; w < workers; w++ {
		go func() {
			for i := range work {
				errc <- handle(i)
			}
		}()
	}
	for i := 0; i < total; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	if hits := mCoalesceHits.Value() - hitsBefore; hits == 0 {
		t.Fatal("coalesce hits = 0 across 512 requests with 6 distinct sweeps")
	} else {
		t.Logf("coalesce hits: %d; admission rejections retried: %d",
			hits, mAdmissionReject.Value()+mJobsRejected.Value()-rejectsBefore)
	}

	// And the loaded server drains cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after load: %v", err)
	}
	if rec := do(h, http.MethodPost, "/v1/whatif", whatifs[0]); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain whatif: status %d, want 503", rec.Code)
	}
}
