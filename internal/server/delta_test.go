package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dbvirt/internal/obs"
)

// maskedPlacement is r's encoding with what a from-scratch solve of the
// same fleet need not share zeroed: the version and the memo counters.
func maskedPlacement(t *testing.T, r *PlacementResponse) []byte {
	t.Helper()
	c := *r
	c.Version = 0
	c.Stats.MachineSolves, c.Stats.MemoHits, c.Stats.ReusedMachines = 0, 0, 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// deltaEvent is one fleet change of TestPlacementDeltaFold's stream.
type deltaEvent struct {
	typ, name, query string
	repeat           int
}

func (e deltaEvent) json() string {
	if e.typ == "leave" {
		return fmt.Sprintf(`{"type":"leave","name":%q}`, e.name)
	}
	return fmt.Sprintf(`{"type":%q,"tenant":{"query":%q,"repeat":%d,"name":%q}}`, e.typ, e.query, e.repeat, e.name)
}

// TestPlacementDeltaFold: over a seeded event stream — single events,
// batches, a drift that re-clusters and a rejected batch — the client's
// fold of the delta responses over the last full body equals GET
// /v1/placement byte for byte after every step and, with the version and
// the stats memo counters masked, a second server's from-scratch POST
// /v1/placement of the same fleet. Only changed machines are sent (see
// foldPlacement), placement.delta.machines counts them, and at least one
// step sends fewer machines than the fleet has.
func TestPlacementDeltaFold(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	ref := newTestServer(t, nil).Handler()
	sent := obs.Global.Counter("placement.delta.machines")
	reclusters := obs.Global.Counter("placement.recluster.count")

	type workload struct {
		query  string
		repeat int
	}
	queries := []string{"Q1", "Q4", "Q6", "Q13"}
	fleet := map[string]workload{}
	for i := 0; i < 40; i++ {
		fleet[fmt.Sprintf("t%02d", i)] = workload{queries[i%len(queries)], 1 + i%2}
	}
	names := func() []string {
		out := make([]string, 0, len(fleet))
		for n := range fleet {
			out = append(out, n)
		}
		slices.Sort(out)
		return out
	}
	fleetBody := func() string {
		var refs []string
		for _, n := range names() {
			w := fleet[n]
			refs = append(refs, fmt.Sprintf(`{"query":%q,"repeat":%d,"name":%q}`, w.query, w.repeat, n))
		}
		return `{"tenants":[` + strings.Join(refs, ",") + `]}`
	}
	client := postPlacement(t, h, fleetBody())

	rng := rand.New(rand.NewSource(46))
	arrived := 0
	random := func() deltaEvent {
		switch rng.Intn(3) {
		case 0:
			arrived++
			return deltaEvent{"arrive", fmt.Sprintf("n%02d", arrived), queries[rng.Intn(len(queries))], 1 + rng.Intn(2)}
		case 1:
			ns := names()
			return deltaEvent{typ: "leave", name: ns[rng.Intn(len(ns))]}
		default:
			ns := names()
			return deltaEvent{"drift", ns[rng.Intn(len(ns))], queries[rng.Intn(len(queries))], 1 + rng.Intn(2)}
		}
	}
	type step struct {
		evs        []deltaEvent
		ok         bool
		recluster  bool
		wantSubstr string
	}
	steps := []step{
		{evs: []deltaEvent{{"arrive", "a01", "Q4", 1}}, ok: true},
		{evs: []deltaEvent{{typ: "leave", name: "t07"}}, ok: true},
		{evs: []deltaEvent{{"drift", "t10", "Q13", 2}}, ok: true},
		{evs: []deltaEvent{{"arrive", "a02", "Q6", 2}, {typ: "leave", name: "t03"}, {"drift", "t20", "Q1", 1}}, ok: true},
		// A workload no tenant runs: a new class, so the pass re-clusters.
		{evs: []deltaEvent{{"drift", "t21", "Q3", 1}}, ok: true, recluster: true},
		{evs: []deltaEvent{{"arrive", "a03", "Q1", 1}, {typ: "leave", name: "nobody"}}, wantSubstr: "unknown tenant"},
	}
	for i := 0; i < 10; i++ {
		var evs []deltaEvent
		for n := 1 + rng.Intn(3); len(evs) < n; {
			ev := random()
			if !slices.ContainsFunc(evs, func(e deltaEvent) bool { return e.name == ev.name }) {
				evs = append(evs, ev)
			}
		}
		steps = append(steps, step{evs: evs, ok: true})
	}

	partial := false
	for i, st := range steps {
		var evs []string
		for _, ev := range st.evs {
			evs = append(evs, ev.json())
		}
		sentBefore, reclustersBefore := sent.Value(), reclusters.Value()
		rec := post(t, h, "/v1/placement/events", `{"events":[`+strings.Join(evs, ",")+`]}`)
		if !st.ok {
			if rec.Code != 400 || !strings.Contains(rec.Body.String(), st.wantSubstr) {
				t.Fatalf("step %d: status %d, want 400 mentioning %q: %s", i, rec.Code, st.wantSubstr, rec.Body)
			}
		} else {
			if rec.Code != 200 {
				t.Fatalf("step %d: status %d: %s", i, rec.Code, rec.Body)
			}
			var d PlacementResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
				t.Fatal(err)
			}
			client = foldPlacement(t, client, rec.Body.Bytes(), len(st.evs))
			if got := sent.Value() - sentBefore; got != int64(len(d.Machines)) {
				t.Fatalf("step %d: placement.delta.machines grew by %d for %d machines sent", i, got, len(d.Machines))
			}
			partial = partial || len(d.Machines) < d.Stats.Machines
			if st.recluster && reclusters.Value() == reclustersBefore {
				t.Fatalf("step %d: the drift to a new workload did not re-cluster", i)
			}
			for _, ev := range st.evs {
				if ev.typ == "leave" {
					delete(fleet, ev.name)
				} else {
					fleet[ev.name] = workload{ev.query, ev.repeat}
				}
			}
		}
		want, err := json.Marshal(client)
		if err != nil {
			t.Fatal(err)
		}
		if full := get(t, h, "/v1/placement"); full.Code != 200 || !bytes.Equal(full.Body.Bytes(), want) {
			t.Fatalf("step %d: the fold differs from GET /v1/placement (status %d):\n got %s\nwant %s", i, full.Code, want, full.Body)
		}
		fresh := postPlacement(t, ref, fleetBody())
		if got, want := maskedPlacement(t, client), maskedPlacement(t, fresh); !bytes.Equal(got, want) {
			t.Fatalf("step %d: the fold differs from a from-scratch solve of the fleet:\n got %s\nwant %s", i, got, want)
		}
	}
	if !partial {
		t.Fatal("every events response sent the whole fleet: the delta is not a delta")
	}
}

// TestPlacementGet: GET /v1/placement is 409 before any placement, then
// the current placement's full body — the POST response itself until an
// event moves it to version 1.
func TestPlacementGet(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	if rec := get(t, h, "/v1/placement"); rec.Code != http.StatusConflict {
		t.Fatalf("GET before any placement: status %d, want 409 (%s)", rec.Code, rec.Body)
	}
	rec := post(t, h, "/v1/placement", placementBody)
	if rec.Code != 200 {
		t.Fatalf("placement: status %d: %s", rec.Code, rec.Body)
	}
	full := get(t, h, "/v1/placement")
	if full.Code != 200 || !bytes.Equal(full.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatalf("GET after POST (status %d) differs from the POST body:\n got %s\nwant %s", full.Code, full.Body, rec.Body)
	}
	if ct := full.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if rec := post(t, h, "/v1/placement/events", `{"events":[{"type":"leave","name":"q13-0000"}]}`); rec.Code != 200 {
		t.Fatalf("events: status %d: %s", rec.Code, rec.Body)
	}
	var after PlacementResponse
	if err := json.Unmarshal(get(t, h, "/v1/placement").Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Version != 1 || after.Stats.Tenants != 11 || len(after.Machines) != after.Stats.Machines {
		t.Fatalf("GET after one event: version %d, tenants %d, %d of %d machines",
			after.Version, after.Stats.Tenants, len(after.Machines), after.Stats.Machines)
	}
}

// placementScript is a FuzzPlacementRoutes input: one request per line.
func placementScript(lines ...string) string { return strings.Join(lines, "\n") }

// FuzzPlacementRoutes drives a script of placement requests against a
// fresh server, one per line: "P <body>" posts /v1/placement, "E <body>"
// posts /v1/placement/events, and any other line gets /v1/placement. No
// request may panic or fail with a 5xx other than 429 and 503 (and 504
// when the body set its own timeout_ms); after every 200 events response
// the client's fold of it equals GET /v1/placement byte for byte, and
// GET answers 409 exactly while no placement is loaded.
func FuzzPlacementRoutes(f *testing.F) {
	f.Add(placementScript( // README's two placement examples
		`P {"tenants":[{"query":"Q4","count":6},{"query":"Q13","name":"q13","count":6}],"machine":{"max_tenants":4}}`,
		`E {"events":[{"type":"arrive","tenant":{"query":"Q6","name":"newt"}},{"type":"leave","name":"q13-0005"}]}`,
		`G`))
	f.Add(placementScript( // TestPlacementWireIdentity's steps
		`G`,
		`P `+placementBody,
		`E {"events":[{"type":"arrive","tenant":{"query":"Q6","name":"a \"quoted\" <tenant> & co"}}]}`,
		`E {"events":[{"type":"leave","name":"q13-0002"},{"type":"drift","tenant":{"query":"Q1","name":"q13-0003","repeat":2}}]}`,
		`E {"events":[{"type":"arrive","tenant":{"query":"Q13","name":"zz"}},{"type":"leave","name":"Q4x1-0001"},{"type":"leave","name":"Q4x1-0002"}]}`,
		`P `+placementBody,
		`P {"tenants":[{"query":"Q4","count":3},{"query":"Q1"}],"algo":"dp","resources":["cpu","memory"],"step":0.25}`,
		`E {"events":[{"type":"leave","name":"Q1x1"}]}`,
		`G`))
	f.Add(placementScript(`E {"events":[{"type":"leave","name":"x"}]}`, `P {"tenants":[{"query":"Q6"}]}`, `E {"events":[{"type":"leave","name":"Q6x1"}]}`, `G`))
	f.Fuzz(func(t *testing.T, script string) {
		s := newTestServer(t, nil)
		t.Cleanup(func() { s.Drain(context.Background()) })
		h := s.Handler()
		var client *PlacementResponse // nil while no placement is loaded
		resync := func() {
			rec := get(t, h, "/v1/placement")
			client = nil
			if rec.Code == 200 {
				client = new(PlacementResponse)
				if err := json.Unmarshal(rec.Body.Bytes(), client); err != nil {
					t.Fatal(err)
				}
			}
		}
		lines := strings.Split(script, "\n")
		if len(lines) > 12 {
			lines = lines[:12]
		}
		for i, line := range lines {
			kind, body, _ := strings.Cut(line, " ")
			var rec *httptest.ResponseRecorder
			switch kind {
			case "P":
				rec = post(t, h, "/v1/placement", body)
			case "E":
				rec = post(t, h, "/v1/placement/events", body)
			default:
				kind, rec = "G", get(t, h, "/v1/placement")
			}
			checkStatus(t, fmt.Sprintf("line %d (%s)", i, kind), body, rec)
			switch {
			case rec.Code >= 500:
				// A request that ran out of its own deadline may or may not
				// have moved the placement: resync, as a client does.
				resync()
				continue
			case rec.Code != 200:
				if kind == "G" && (client == nil) != (rec.Code == http.StatusConflict) {
					t.Fatalf("line %d: GET status %d with placement loaded = %v", i, rec.Code, client != nil)
				}
				continue
			case kind == "P":
				client = new(PlacementResponse)
				if err := json.Unmarshal(rec.Body.Bytes(), client); err != nil {
					t.Fatal(err)
				}
			case kind == "E":
				if client == nil {
					t.Fatalf("line %d: events applied with no placement loaded", i)
				}
				var req PlacementEventsRequest // decoded as the handler decodes it
				if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
					t.Fatal(err)
				}
				client = foldPlacement(t, client, rec.Body.Bytes(), len(req.Events))
			}
			want, err := json.Marshal(client)
			if err != nil {
				t.Fatal(err)
			}
			if full := get(t, h, "/v1/placement"); full.Code != 200 || !bytes.Equal(full.Body.Bytes(), want) {
				t.Fatalf("line %d (%s): the client's copy differs from GET /v1/placement (status %d):\n got %s\nwant %s",
					i, kind, full.Code, want, full.Body)
			}
		}
	})
}
