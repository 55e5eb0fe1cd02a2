package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/experiments"
	"dbvirt/internal/server"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// service is vdtuned as the two HTTP workloads run it: server.New wired as
// cmd/vdtuned wires it, served by net/http on a loopback TCP listener in
// this process, one keep-alive connection per client, plus a second server
// over the same databases and grid that answers serially and in process —
// the reference every checked response is compared with.
type service struct {
	tr      *tracer
	env     *experiments.Env
	cal     *calibration.Calibrator
	gridS   float64 // wall seconds of the grid calibration
	points  int
	srv     *server.Server
	ref     *server.Server
	model   core.CostModel        // traced runs: the cost model handed to srv
	shared  *core.SharedCostModel // traced runs: the memo inside model
	hs      *http.Server
	served  chan struct{}
	base    string
	clients []*httpClient
}

// httpClient is one closed-loop caller: its own connection and a reusable
// response buffer, so the harness adds no per-op allocation of body size.
type httpClient struct {
	c   *http.Client
	buf bytes.Buffer
}

// quickCalibration is the cmd/calibrate -quick configuration.
func quickCalibration() calibration.Config {
	cfg := calibration.DefaultConfig()
	cfg.Machine.MemBytes = 8 << 20
	cfg.NarrowRows = 4000
	cfg.BigRows = 20000
	return cfg
}

// startService calibrates a real grid, builds both servers, prewarms every
// named query and starts listening. All of it is set-up time.
func startService(tr *tracer, sz sizing, nclients int, tweak func(*server.Config)) (*service, error) {
	s := &service{tr: tr}
	axes := []float64{0.25, 0.5, 0.75, 1.0}
	s.env = experiments.QuickEnv()
	if sz.scale < 1 { // smoke test: tiny databases
		s.env = experiments.NewEnv(workload.TinyScale(), vm.DefaultMachineConfig())
	}
	s.cal = calibration.New(quickCalibration())
	start := time.Now()
	grid, err := s.cal.CalibrateGridOpts(context.Background(), axes, axes, axes, calibration.GridOptions{})
	if err != nil {
		return nil, fmt.Errorf("calibrating: %w", err)
	}
	s.gridS, s.points = time.Since(start).Seconds(), len(axes)*len(axes)*len(axes)

	cfg := server.Config{Env: s.env, Grid: grid}
	if tr != nil {
		// Same model the server would build itself, with a span around the
		// memo and around the what-if model inside it.
		s.shared = core.NewSharedCostModel(&timedModel{inner: &core.WhatIfModel{Grid: grid}, span: spanWhatIf, tr: tr}, specKey)
		s.model = &timedModel{inner: s.shared, span: spanShared, tr: tr}
		cfg.Model = s.model
	}
	if tweak != nil {
		tweak(&cfg)
	}
	if s.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	if s.ref, err = server.New(server.Config{Env: s.env, Grid: grid}); err != nil {
		return nil, err
	}
	var names []string
	for q := range workload.Queries() {
		names = append(names, q)
	}
	if err := s.srv.Prewarm(names); err != nil {
		return nil, fmt.Errorf("prewarming: %w", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + lis.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.hs.Serve(lis) // returns when stop closes the server
	}()
	for i := 0; i < nclients; i++ {
		s.clients = append(s.clients, &httpClient{c: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}})
	}
	return s, nil
}

// stop closes the listener and connections and waits for the serving
// goroutine and both servers' workers to end.
func (s *service) stop() {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	for _, c := range s.clients {
		c.c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range []*server.Server{s.srv, s.ref} {
		if srv != nil {
			srv.Drain(ctx)
		}
	}
}

// roundTrip sends one request on the client's connection and returns the
// status and the payload, which stays valid until the client's next
// request. A refusal (429) or server error is retried three times, 2 ms
// apart; what comes back after that is the op's outcome.
func (s *service) roundTrip(c int, ot *opTrace, method, path, body string) (int, []byte, error) {
	cl := s.clients[c]
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, s.base+path, strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		var t0 int64
		if ot != nil {
			req.Header.Set("traceparent", ot.sc.Traceparent())
			t0 = s.tr.now()
		}
		resp, err := cl.c.Do(req)
		if err != nil {
			return 0, nil, err
		}
		cl.buf.Reset()
		_, err = cl.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if ot != nil {
			ot.span(spanHTTP, t0, s.tr.now())
		}
		if err != nil {
			return 0, nil, err
		}
		if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500) && attempt < 3 {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		return resp.StatusCode, cl.buf.Bytes(), nil
	}
}

// inProcess sends one request straight to a server's handler.
func inProcess(srv *server.Server, method, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

var (
	stateQueued  = []byte(`"state":"queued"`)
	stateRunning = []byte(`"state":"running"`)
	resultField  = []byte(`"result":`)
)

func jobPending(status []byte) bool {
	return bytes.Contains(status, stateQueued) || bytes.Contains(status, stateRunning)
}

// solveResult cuts the deterministic part out of a job status: the result
// object, without the job id that differs between servers.
func solveResult(status []byte) []byte {
	if i := bytes.Index(status, resultField); i >= 0 {
		return status[i:]
	}
	return nil
}

// refSolve runs one solve job on the reference server to completion.
func (s *service) refSolve(body string) ([]byte, error) {
	code, resp := inProcess(s.ref, "POST", "/v1/solve", body)
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("reference solve: status %d: %s", code, resp)
	}
	var acc server.SolveAccepted
	if err := json.Unmarshal(resp, &acc); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		if _, st := inProcess(s.ref, "GET", "/v1/jobs/"+acc.JobID, ""); !jobPending(st) {
			return st, nil
		}
	}
	return nil, fmt.Errorf("reference solve %s did not finish", acc.JobID)
}

// reference answers an op the way the serial in-process server does and
// returns the payload a correct response must equal.
func (s *service) reference(o *op, kinds []string) ([]byte, error) {
	if kinds[o.kind] == "solve" {
		st, err := s.refSolve(o.body)
		if err != nil {
			return nil, err
		}
		return solveResult(st), nil
	}
	code, resp := inProcess(s.ref, o.method, o.path, o.body)
	if code != http.StatusOK {
		return nil, fmt.Errorf("reference server: status %d: %s", code, resp)
	}
	return resp, nil
}

// calibrationMetrics reports how the grid calibration of set-up went.
func (s *service) calibrationMetrics(m metricSet) {
	m["calibration.grid_s"] = s.gridS
	m["calibration.points_per_s"] = ratio(float64(s.points), s.gridS)
	m["calibration.measurements"] = float64(s.cal.Measurements())
	if s.shared != nil {
		m["core.shared_entries"] = float64(s.shared.Len())
	}
}
