package placement

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"dbvirt/internal/vm"
)

// wireLists is the reflective reference for Placement.AppendJSON.
type wireLists struct {
	Stats    SolveStats  `json:"stats"`
	Classes  []ClassInfo `json:"classes"`
	Machines []Machine   `json:"machines"`
}

func assertWireEqual(t *testing.T, label string, pl *Placement) {
	t.Helper()
	want, err := json.Marshal(wireLists{pl.Stats, pl.Classes, pl.Machines})
	if err != nil {
		t.Fatalf("%s: reference marshal: %v", label, err)
	}
	got, err := pl.AppendJSON([]byte{'{'})
	if err != nil {
		t.Fatalf("%s: AppendJSON: %v", label, err)
	}
	got = append(got, '}')
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder differs from encoding/json:\n got %s\nwant %s", label, got, want)
	}
}

// TestEncodeMatchesJSONOnFleets: over solved and incrementally updated
// fleets the append encoder writes byte for byte what encoding/json
// writes — on the first pass (fragments rendered) and the second
// (fragments spliced).
func TestEncodeMatchesJSONOnFleets(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	for _, cfg := range []Config{{}, {Algo: "dp", Resources: []vm.Resource{vm.CPU, vm.Memory}, Step: 0.25}, {Machine: MachineCaps{CPU: 4, MaxTenants: 3}}} {
		s, _ := newTestSolver(t, cfg)
		for _, n := range []int{1, 2, 13, 60} {
			pl, err := s.Solve(ctx, f.tenants(n))
			if err != nil {
				t.Fatal(err)
			}
			assertWireEqual(t, "solve", pl)
			assertWireEqual(t, "solve again", pl)
			if _, err := pl.Apply(ctx,
				Event{Type: Arrive, Tenant: &Tenant{Name: `new "tenant" <&> \` + "\u2028", Spec: f.specs["beta"]}},
				Event{Type: Drift, Tenant: &Tenant{Name: "t0000", Spec: f.specs["eps"]}}); err != nil {
				t.Fatal(err)
			}
			assertWireEqual(t, "apply", pl)
		}
	}
}

// TestEncodeMatchesJSONOnEdgeRows: hand-built rows covering the string
// escapes and number formats encoding/json special-cases, encoded both
// from the structs alone and through solve fragments.
func TestEncodeMatchesJSONOnEdgeRows(t *testing.T) {
	names := []string{
		"", "plain", `quo"te`, `back\slash`, "<script>&amp;</script>", "line\u2028sep\u2029para",
		"a\x1db\x00c\x7f", "tab\tnl\ncr\rbs\bff\f", "h\u00e9llo w\u00f6rld \u2713 \u65e5\u672c \U0001f600", "bad\xffutf8\xc3", "\u2027\u202a",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 9.999999e-7, 1e-6, 1e21, 9.99e20, -1e21, 5e-324,
		math.MaxFloat64, 1.0 / 3, 0.125, 1, 100, 123456789.125, 1e-10, 1.5e-9, 2.5e+30,
	}
	var classes []ClassInfo
	for i, n := range names {
		classes = append(classes, ClassInfo{ID: i - 1, Rep: n, Size: i, Members: names[:i]})
	}
	classes = append(classes, ClassInfo{Rep: "nil members"}, ClassInfo{Rep: "no members", Members: []string{}})

	var machines []Machine
	var sols []*machineSolve
	for i, n := range names {
		var seats []PlacedTenant
		sol := &machineSolve{display: n + "\x1d" + names[len(names)-1-i], total: floats[i%len(floats)]}
		for j := 0; j <= i%4; j++ {
			fl := func(k int) float64 { return floats[(i*7+j*3+k)%len(floats)] }
			seat := PlacedTenant{Name: names[(i+j)%len(names)], Class: j - 1,
				Shares: vm.Shares{CPU: fl(0), Memory: fl(1), IO: fl(2)}, Cost: fl(3)}
			seats = append(seats, seat)
			sol.shares, sol.costs = append(sol.shares, seat.Shares), append(sol.costs, seat.Cost)
		}
		machines = append(machines, Machine{ID: i * 1000, Key: sol.display, Tenants: seats, TotalCost: sol.total})
		sols = append(sols, sol)
	}
	// Seats that no longer match their solve (and 0 vs -0, which == cannot
	// tell apart) must be encoded from the seat, not spliced from the solve.
	machines[3].Tenants[0].Cost = 42
	machines[5].Tenants[1].Shares.IO = 0.0625
	machines[4].TotalCost, sols[4].total = math.Copysign(0, -1), 0
	machines[6].Key = "renamed"
	machines[7].Tenants = machines[7].Tenants[:1]
	machines = append(machines, Machine{ID: -1, Key: "nil tenants"}, Machine{Key: "no tenants", Tenants: []PlacedTenant{}})
	sols = append(sols, &machineSolve{display: "nil tenants"}, &machineSolve{display: "no tenants"})

	check := func(label string, got []byte, err error, v any) {
		t.Helper()
		want, jerr := json.Marshal(v)
		if jerr != nil || err != nil {
			t.Fatalf("%s: encoder error %v, encoding/json error %v", label, err, jerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoder differs from encoding/json:\n got %s\nwant %s", label, got, want)
		}
	}
	// Pre-rendered names parallel to the members and seats, some of them
	// stale (the field was renamed after rendering) and the list short of
	// the last: a stale or missing entry must be encoded from the field.
	quotedOf := func(names []string) []quotedName {
		var qs []quotedName
		for i, n := range names {
			q := quotedName{n, quote(n)}
			if i%5 == 3 {
				q = quotedName{"stale " + n, quote("stale " + n)}
			}
			qs = append(qs, q)
		}
		return qs[:len(qs)-1]
	}
	var memberNames, seatNames []string
	for _, c := range classes {
		memberNames = append(memberNames, c.Members...)
	}
	for _, m := range machines {
		for _, pt := range m.Tenants {
			seatNames = append(seatNames, pt.Name)
		}
	}
	check("classes", appendClasses(nil, classes, nil), nil, classes)
	check("classes via quoted names", appendClasses(nil, classes, quotedOf(memberNames)), nil, classes)
	check("nil classes", appendClasses(nil, nil, nil), nil, []ClassInfo(nil))
	check("empty classes", appendClasses(nil, []ClassInfo{}, nil), nil, []ClassInfo{})
	got, err := appendMachines(nil, machines, nil, nil)
	check("machines", got, err, machines)
	for pass := 0; pass < 2; pass++ {
		got, err = appendMachines(nil, machines, sols, quotedOf(seatNames))
		check("machines via fragments and quoted names", got, err, machines)
	}
	got, err = appendMachines(nil, nil, nil, nil)
	check("nil machines", got, err, []Machine(nil))
	got, err = appendMachines(nil, []Machine{}, nil, nil)
	check("empty machines", got, err, []Machine{})
	for _, f := range floats {
		got, err := AppendFloat(nil, f)
		check("float", got, err, f)
	}
	check("stats", SolveStats{1, -2, 3, 4, 5, 6, 7}.appendJSON(nil), nil, SolveStats{1, -2, 3, 4, 5, 6, 7})

	// What encoding/json refuses, the encoder refuses — from a seat and
	// from a solve's fragments alike.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("encoding/json accepts %v", f)
		}
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat accepts %v", f)
		}
		bad := []Machine{{Tenants: []PlacedTenant{{Cost: f}}, TotalCost: 1}}
		if _, err := appendMachines(nil, bad, nil, nil); err == nil {
			t.Errorf("appendMachines accepts a seat costing %v", f)
		}
		sol := &machineSolve{shares: []vm.Shares{{}}, costs: []float64{f}, total: 1}
		if _, err := appendMachines(nil, bad, []*machineSolve{sol}, nil); err == nil {
			t.Errorf("appendMachines accepts a solve costing %v", f)
		}
	}
}

// TestAppendDeltaJSON: right after Apply, the delta lists exactly the
// machines whose encoding differs from the same-id machine before the pass
// — checked against a copy of the machines taken before it — each encoded
// as AppendJSON encodes it, and the classes without members. A placement
// never applied to lists every machine, and computing the delta allocates
// nothing beyond the destination's growth.
func TestAppendDeltaJSON(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	s, _ := newTestSolver(t, Config{})
	pl, err := s.Solve(ctx, f.tenants(200))
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) wireLists {
		t.Helper()
		var w wireLists
		if err := json.Unmarshal(b, &w); err != nil {
			t.Fatalf("delta does not decode: %v: %.200s", err, b)
		}
		return w
	}
	delta := func() []byte {
		t.Helper()
		b, err := pl.AppendDeltaJSON([]byte{'{'})
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '}')
	}
	if got := decode(delta()); len(got.Machines) != len(pl.Machines) {
		t.Fatalf("an unapplied placement's delta lists %d of %d machines", len(got.Machines), len(pl.Machines))
	}
	steps := [][]Event{
		{{Type: Arrive, Tenant: &Tenant{Name: "x01", Spec: f.specs["beta"]}}},
		{{Type: Leave, Name: "t0100"}},
		{{Type: Drift, Tenant: &Tenant{Name: "t0150", Spec: f.specs["alpha"]}}},
		{{Type: Arrive, Tenant: &Tenant{Name: "x02", Spec: f.specs["eps"]}}, {Type: Leave, Name: "t0003"}, {Type: Leave, Name: "x01"}},
	}
	partial := false
	for i, evs := range steps {
		encoded := func(ms []Machine) [][]byte {
			out := make([][]byte, len(ms))
			for j := range ms {
				out[j], _ = json.Marshal(&ms[j])
			}
			return out
		}
		before := encoded(pl.Machines)
		if _, err := pl.Apply(ctx, evs...); err != nil {
			t.Fatal(err)
		}
		want := wireLists{Stats: pl.Stats, Machines: []Machine{}}
		for _, c := range pl.Classes {
			c.Members = nil
			want.Classes = append(want.Classes, c)
		}
		for j, enc := range encoded(pl.Machines) {
			if j >= len(before) || !bytes.Equal(enc, before[j]) {
				want.Machines = append(want.Machines, pl.Machines[j])
			}
		}
		got := delta()
		if w, g := mustMarshal(t, want), mustMarshal(t, decode(got)); !bytes.Equal(w, g) {
			t.Fatalf("step %d: delta\n got %s\nwant %s", i, g, w)
		}
		for _, m := range want.Machines {
			if enc := mustMarshal(t, m); !bytes.Contains(got, enc) {
				t.Fatalf("step %d: machine %d is not encoded as encoding/json encodes it", i, m.ID)
			}
		}
		partial = partial || len(want.Machines) < len(pl.Machines)
	}
	if !partial {
		t.Fatal("every delta listed the whole fleet")
	}
	dst := make([]byte, 0, 1<<20)
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := pl.AppendDeltaJSON(dst[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendDeltaJSON allocates %.1f times, want 0", allocs)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
