package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dbvirt/internal/obs"
)

const placementBody = `{"tenants":[{"query":"Q4","count":6},{"query":"Q13","name":"q13","count":6}]}`

func postPlacement(t *testing.T, h http.Handler, body string) *PlacementResponse {
	t.Helper()
	rec := post(t, h, "/v1/placement", body)
	if rec.Code != 200 {
		t.Fatalf("placement: status %d: %s", rec.Code, rec.Body)
	}
	var resp PlacementResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func TestPlacementValidation(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	cases := []struct {
		name, path, body string
		wantSubstr       string
	}{
		{"malformed json", "/v1/placement", `{`, "malformed"},
		{"unknown field", "/v1/placement", `{"tenant":[]}`, "unknown field"},
		{"no tenants", "/v1/placement", `{"tenants":[]}`, "no tenants"},
		{"unknown query", "/v1/placement", `{"tenants":[{"query":"Q99"}]}`, "unknown query"},
		{"count range", "/v1/placement", `{"tenants":[{"query":"Q4","count":2000}]}`, "count"},
		{"fleet too large", "/v1/placement",
			`{"tenants":[{"query":"Q4","count":1024},{"query":"Q13","count":1024},{"query":"Q6","count":1024},{"query":"Q1","count":1024},{"query":"Q3","count":1024}]}`,
			"too many tenants"},
		{"bad algo", "/v1/placement", `{"tenants":[{"query":"Q4"}],"algo":"annealing"}`, "unknown algo"},
		{"bad resource", "/v1/placement", `{"tenants":[{"query":"Q4"}],"resources":["gpu"]}`, "unknown resource"},
		{"negative timeout", "/v1/placement", `{"tenants":[{"query":"Q4"}],"timeout_ms":-1}`, "timeout"},
		{"bad threshold", "/v1/placement", `{"tenants":[{"query":"Q4"}],"threshold":2}`, "threshold"},
		{"bad step", "/v1/placement", `{"tenants":[{"query":"Q4"}],"step":0.3}`, "step"},
		{"no events", "/v1/placement/events", `{"events":[]}`, "no events"},
		{"unknown event type", "/v1/placement/events", `{"events":[{"type":"migrate"}]}`, "unknown type"},
		{"leave without name", "/v1/placement/events", `{"events":[{"type":"leave"}]}`, "tenant name"},
		{"arrive without tenant", "/v1/placement/events", `{"events":[{"type":"arrive"}]}`, "needs a tenant"},
		{"arrive with count", "/v1/placement/events",
			`{"events":[{"type":"arrive","tenant":{"query":"Q4","count":2}}]}`, "one tenant per event"},
		{"event unknown query", "/v1/placement/events",
			`{"events":[{"type":"arrive","tenant":{"query":"Q99"}}]}`, "unknown query"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, tc.path, tc.body)
			if rec.Code != 400 {
				t.Fatalf("status %d, want 400 (body %s)", rec.Code, rec.Body)
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

	// Too many events is checked before anything touches state.
	var evs []string
	for i := 0; i < maxPlacementEvents+1; i++ {
		evs = append(evs, fmt.Sprintf(`{"type":"leave","name":"t%d"}`, i))
	}
	rec := post(t, h, "/v1/placement/events", `{"events":[`+strings.Join(evs, ",")+`]}`)
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "too many events") {
		t.Fatalf("oversized events: status %d: %s", rec.Code, rec.Body)
	}
}

func TestPlacementSolveAndEvents(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	// Events against an empty server: nothing to apply them to.
	rec := post(t, h, "/v1/placement/events", `{"events":[{"type":"leave","name":"q13-0000"}]}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("events before placement: status %d, want 409 (%s)", rec.Code, rec.Body)
	}

	resp := postPlacement(t, h, placementBody)
	if !resp.Verified {
		t.Fatal("placement response not verified")
	}
	if resp.Stats.Tenants != 12 {
		t.Fatalf("tenants = %d, want 12", resp.Stats.Tenants)
	}
	if resp.TotalCost <= 0 || len(resp.Machines) == 0 || len(resp.Classes) == 0 {
		t.Fatalf("degenerate placement: %+v", resp)
	}
	seats := 0
	for _, m := range resp.Machines {
		seats += len(m.Tenants)
	}
	if seats != 12 {
		t.Fatalf("seated tenants = %d, want 12", seats)
	}
	if st, ok := s.plStats(); !ok || st.Tenants != 12 {
		t.Fatalf("server placement state: %+v ok=%v", st, ok)
	}

	// One arrival, one departure, applied incrementally.
	rec = post(t, h, "/v1/placement/events",
		`{"events":[{"type":"arrive","tenant":{"query":"Q6","name":"newt"}},{"type":"leave","name":"q13-0005"}]}`)
	if rec.Code != 200 {
		t.Fatalf("events: status %d: %s", rec.Code, rec.Body)
	}
	var after PlacementResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Events != 2 || !after.Verified || after.Stats.Tenants != 12 {
		t.Fatalf("post-events placement: events=%d verified=%v tenants=%d",
			after.Events, after.Verified, after.Stats.Tenants)
	}

	// The incrementally updated placement must be bit-identical to solving
	// the final fleet from scratch: same classes, machines, and fleet cost.
	fresh := postPlacement(t, h,
		`{"tenants":[{"query":"Q4","count":6},{"query":"Q13","name":"q13","count":5},{"query":"Q6","name":"newt"}]}`)
	for _, cmp := range []struct {
		name      string
		got, want any
	}{
		{"classes", after.Classes, fresh.Classes},
		{"machines", after.Machines, fresh.Machines},
		{"total_cost", after.TotalCost, fresh.TotalCost},
		{"order", after.Order, fresh.Order},
	} {
		got, _ := json.Marshal(cmp.got)
		want, _ := json.Marshal(cmp.want)
		if !bytes.Equal(got, want) {
			t.Fatalf("incremental %s diverge from fresh solve:\n got %s\nwant %s", cmp.name, got, want)
		}
	}

	// Caller mistakes in otherwise well-formed events are 400s, and the
	// placement is left untouched.
	rec = post(t, h, "/v1/placement/events", `{"events":[{"type":"leave","name":"nope"}]}`)
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "unknown tenant") {
		t.Fatalf("leave unknown: status %d: %s", rec.Code, rec.Body)
	}
	rec = post(t, h, "/v1/placement/events",
		`{"events":[{"type":"arrive","tenant":{"query":"Q6","name":"newt"}}]}`)
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "already present") {
		t.Fatalf("duplicate arrive: status %d: %s", rec.Code, rec.Body)
	}
}

// TestPlacementNormalizeReuse is the end-to-end check that fleet
// placement rides the interned-spec normalization cache: tenants sharing
// a workload are featurized once per spec, every other one counted by
// placement.normalize.reused.
func TestPlacementNormalizeReuse(t *testing.T) {
	s := newTestServer(t, nil)
	reused := obs.Global.Counter("placement.normalize.reused")
	before := reused.Value()
	resp := postPlacement(t, s.Handler(), `{"tenants":[{"query":"Q4","count":8},{"query":"Q13","count":8}]}`)
	if resp.Stats.Tenants != 16 {
		t.Fatalf("tenants = %d, want 16", resp.Stats.Tenants)
	}
	// 16 tenants over 2 interned specs: at least 14 feature derivations
	// must be cache hits, not fresh normalization passes.
	if delta := reused.Value() - before; delta < 14 {
		t.Fatalf("placement.normalize.reused grew by %d, want >= 14", delta)
	}
}

func TestPlacementAdmission429(t *testing.T) {
	_, grid := testEnv(t)
	gate := newGateModel(grid)
	s := newTestServer(t, func(c *Config) {
		c.Model = gate
		c.MaxInflight = 1
		c.MaxQueue = 1
	})
	h := s.Handler()

	// Distinct seeds: identical bodies would coalesce instead of queueing.
	body := func(i int) string {
		return fmt.Sprintf(`{"tenants":[{"query":"Q4","count":2}],"seed":%d}`, i+1)
	}
	var wg sync.WaitGroup
	statuses := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i] = post(t, h, "/v1/placement", body(i)).Code
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gate.calls.Load() == 0 || s.lim.pressure.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached (calls=%d pressure=%d)", gate.calls.Load(), s.lim.pressure.Load())
		}
		time.Sleep(time.Millisecond)
	}
	rec := post(t, h, "/v1/placement", body(2))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != retryAfter {
		t.Fatalf("Retry-After %q, want %q", ra, retryAfter)
	}

	close(gate.release)
	wg.Wait()
	for i, code := range statuses {
		if code != 200 {
			t.Fatalf("request %d: status %d, want 200", i, code)
		}
	}
}

func TestPlacementCoalesceInflightOnly(t *testing.T) {
	_, grid := testEnv(t)
	gate := newGateModel(grid)
	s := newTestServer(t, func(c *Config) { c.Model = gate })
	h := s.Handler()

	joinsBefore := mCoalesceInflight.Value()
	const n = 4
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(t, h, "/v1/placement", placementBody)
			codes[i], bodies[i] = rec.Code, rec.Body.Bytes()
		}(i)
	}
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
			t.Fatalf("request %d: body differs from request 0", i)
		}
	}
	if joins := mCoalesceInflight.Value() - joinsBefore; joins < n-1 {
		t.Fatalf("in-flight joins = %d, want >= %d", joins, n-1)
	}

	// In-flight only: an identical request arriving after completion must
	// recompute (a memoized replay could hand out a placement that later
	// events superseded). With a warm solver and verified shapes a recompute
	// makes no model calls, so assert the property itself: after an event
	// shrank the fleet, the identical request answers with the base fleet
	// again, from a fresh solve and not from the coalescer's memo.
	if rec := post(t, h, "/v1/placement/events", `{"events":[{"type":"leave","name":"q13-0000"}]}`); rec.Code != 200 {
		t.Fatalf("leave event: status %d: %s", rec.Code, rec.Body)
	}
	if st, _ := s.plStats(); st.Tenants != 11 {
		t.Fatalf("tenants after leave = %d, want 11", st.Tenants)
	}
	solves := obs.Global.Counter("placement.solve.count")
	solvesBefore, memoBefore := solves.Value(), mCoalesceMemo.Value()
	rec := post(t, h, "/v1/placement", placementBody)
	if rec.Code != 200 {
		t.Fatalf("follow-up placement: status %d: %s", rec.Code, rec.Body)
	}
	var resp PlacementResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Tenants != 12 || bytes.Contains(rec.Body.Bytes(), []byte(`"events"`)) {
		t.Fatalf("follow-up identical placement replayed superseded state: tenants=%d body=%.120s",
			resp.Stats.Tenants, rec.Body)
	}
	if got := solves.Value() - solvesBefore; got != 1 {
		t.Fatalf("placement.solve.count advanced by %d, want 1", got)
	}
	if got := mCoalesceMemo.Value() - memoBefore; got != 0 {
		t.Fatalf("follow-up identical placement was served from the coalescer memo (%d hits); want recompute", got)
	}
}

// reflectResponse is the reflective reference the handlers' append
// encoder must match byte for byte: the server's current placement
// through encoding/json.
func reflectResponse(s *Server, events int) *PlacementResponse {
	s.plState.mu.Lock()
	defer s.plState.mu.Unlock()
	pl := s.plState.pl
	return &PlacementResponse{
		TotalCost: pl.TotalCost,
		Order:     pl.Order,
		Verified:  true,
		Events:    events,
		Stats:     pl.Stats,
		Classes:   pl.Classes,
		Machines:  pl.Machines,
	}
}

// TestPlacementWireIdentity: every response of both placement endpoints
// over a solve / events / re-solve sequence is byte-identical to what
// encoding/json writes for PlacementResponse — json.Marshal for POST
// /v1/placement, json.Encoder (trailing newline) for the events endpoint,
// as before the handlers encoded by hand.
func TestPlacementWireIdentity(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	steps := []struct {
		path, body string
		events     int
	}{
		{"/v1/placement", placementBody, 0},
		{"/v1/placement/events", `{"events":[{"type":"arrive","tenant":{"query":"Q6","name":"a \"quoted\" <tenant> & co"}}]}`, 1},
		{"/v1/placement/events", `{"events":[{"type":"leave","name":"q13-0002"},{"type":"drift","tenant":{"query":"Q1","name":"q13-0003","repeat":2}}]}`, 2},
		{"/v1/placement/events", `{"events":[{"type":"arrive","tenant":{"query":"Q13","name":"zz"}},{"type":"leave","name":"Q4x1-0001"},{"type":"leave","name":"Q4x1-0002"}]}`, 3},
		{"/v1/placement", placementBody, 0},
		{"/v1/placement", `{"tenants":[{"query":"Q4","count":3},{"query":"Q1"}],"algo":"dp","resources":["cpu","memory"],"step":0.25}`, 0},
		{"/v1/placement/events", `{"events":[{"type":"leave","name":"Q1x1"}]}`, 1},
	}
	for i, st := range steps {
		rec := post(t, h, st.path, st.body)
		if rec.Code != 200 {
			t.Fatalf("step %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var want bytes.Buffer
		if st.events == 0 {
			b, err := json.Marshal(reflectResponse(s, 0))
			if err != nil {
				t.Fatal(err)
			}
			want.Write(b)
		} else if err := json.NewEncoder(&want).Encode(reflectResponse(s, st.events)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("step %d (%s): response differs from encoding/json:\n got %s\nwant %s", i, st.path, rec.Body, want.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("step %d: Content-Type %q", i, ct)
		}
		// The head the ledger's per-op check parses precedes the lists.
		if !bytes.Contains(rec.Body.Bytes(), []byte(`},"classes":[`)) {
			t.Fatalf("step %d: stats do not precede the class list: %.200s", i, rec.Body)
		}
	}
}

// TestPlacementSolverLifetime: the solver lives as long as its
// configuration. An identical POST /v1/placement re-solves on the current
// solver — every machine shape a memo hit — and reports what a fresh
// server reports; any change to the solver's configuration builds a new
// one.
func TestPlacementSolverLifetime(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	first := postPlacement(t, h, placementBody)
	if first.Stats.MachineSolves == 0 || first.Stats.MemoHits != 0 {
		t.Fatalf("first placement: %+v, want fresh machine solves and no memo hits", first.Stats)
	}
	// Events in between ride, and grow, the same memo.
	if rec := post(t, h, "/v1/placement/events", `{"events":[{"type":"leave","name":"q13-0001"}]}`); rec.Code != 200 {
		t.Fatalf("events: status %d: %s", rec.Code, rec.Body)
	}
	second := postPlacement(t, h, placementBody)
	if second.Stats.MachineSolves != 0 || second.Stats.MemoHits == 0 || second.Stats.ReusedMachines != second.Stats.Machines {
		t.Fatalf("identical placement on a warm server: %+v, want every shape from the memo", second.Stats)
	}
	fresh := postPlacement(t, newTestServer(t, nil).Handler(), placementBody)
	if second.TotalCost != fresh.TotalCost || second.Order != fresh.Order {
		t.Fatalf("warm placement (cost %v, order %d) != fresh server's (cost %v, order %d)",
			second.TotalCost, second.Order, fresh.TotalCost, fresh.Order)
	}
	got, _ := json.Marshal(second.Machines)
	want, _ := json.Marshal(fresh.Machines)
	if !bytes.Equal(got, want) {
		t.Fatalf("warm placement's machines diverge from a fresh server's:\n got %s\nwant %s", got, want)
	}

	// Same tenants, another solver configuration: nothing may be reused.
	base := strings.TrimSuffix(placementBody, "}")
	for _, cfg := range []string{`"step":0.25`, `"orders":2`, `"seed":7`, `"machine":{"max_tenants":3}`, `"threshold":0.2`, `"algo":"dp"`, `"resources":["cpu","io"]`} {
		resp := postPlacement(t, h, base+","+cfg+"}")
		if resp.Stats.MemoHits != 0 || resp.Stats.MachineSolves == 0 {
			t.Fatalf("%s: %+v, want a new solver (no memo hits)", cfg, resp.Stats)
		}
	}
	// A rejected configuration leaves the current solver in place.
	warm := postPlacement(t, h, placementBody)
	if rec := post(t, h, "/v1/placement", base+`,"step":0.3}`); rec.Code != 400 {
		t.Fatalf("bad step: status %d: %s", rec.Code, rec.Body)
	}
	if again := postPlacement(t, h, placementBody); again.Stats.MachineSolves != 0 || again.TotalCost != warm.TotalCost {
		t.Fatalf("placement after a rejected request: %+v cost %v, want memo hits and cost %v", again.Stats, again.TotalCost, warm.TotalCost)
	}
}

// TestPlacementConcurrentSolveAndEvents drives POST /v1/placement and
// /v1/placement/events concurrently: both run on the one shared solver
// (placements outside the state lock, events under it), so under -race
// this is the check that its memos, the solves' verified bits and
// fragments, and the in-place Apply are properly synchronized. Every
// response must be a verified placement.
func TestPlacementConcurrentSolveAndEvents(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	postPlacement(t, h, placementBody)

	const rounds = 12
	var wg sync.WaitGroup
	errs := make(chan error, 4*rounds)
	check := func(rec *httptest.ResponseRecorder, events int) {
		var resp PlacementResponse
		if rec.Code != 200 {
			errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			errs <- err
		} else if !resp.Verified || resp.Events != events || !(resp.TotalCost > 0) || len(resp.Machines) != resp.Stats.Machines {
			errs <- fmt.Errorf("bad response: verified=%v events=%d cost=%v machines=%d/%d",
				resp.Verified, resp.Events, resp.TotalCost, len(resp.Machines), resp.Stats.Machines)
		}
	}
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func(g int) { // placements: alternately the base fleet and a larger one
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body := placementBody
				if (i+g)%2 == 1 {
					body = `{"tenants":[{"query":"Q4","count":9},{"query":"Q13","name":"q13","count":6},{"query":"Q6","name":"q6","count":3}]}`
				}
				check(post(t, h, "/v1/placement", body), 0)
			}
		}(g)
		go func(g int) { // events: an arrival, then its departure
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("ev-%d-%d", g, i)
				check(post(t, h, "/v1/placement/events",
					fmt.Sprintf(`{"events":[{"type":"arrive","tenant":{"query":"Q1","name":%q}}]}`, name)), 1)
				// A placement may have replaced the fleet in between; then the
				// departure is a well-formed 400, not an error.
				rec := post(t, h, "/v1/placement/events", fmt.Sprintf(`{"events":[{"type":"leave","name":%q}]}`, name))
				if rec.Code != 400 || !strings.Contains(rec.Body.String(), "unknown tenant") {
					check(rec, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
