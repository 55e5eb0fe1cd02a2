package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"dbvirt/internal/autotune"
	"dbvirt/internal/buffer"
	"dbvirt/internal/obs"
	"dbvirt/internal/placement"
	"dbvirt/internal/server"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
)

// Frozen sizes of the fleet_control workload.
const (
	fleetTenantsPerSpec = 84 // x 12 interned specs = 1008 tenants
	fleetCyclesPerLap   = 4  // 200 ops
	fleetShiftLap       = 2  // the managed tenants' mix shifts when this lap starts
)

// Op kinds of the 50-op operator cycle, indices into fleetKinds.
const (
	kPlacement = iota
	kEvent
	kTelemetry
	kTrigger
)

var fleetKinds = []string{"placement", "placement_events", "whatif", "autotune_trigger"}

// fleetSpecs are the 12 workload identities of the fleet.
var fleetSpecs = func() []wref {
	var specs []wref
	for repeat := 1; repeat <= 3; repeat++ {
		for _, q := range []string{"Q1", "Q4", "Q6", "Q13"} {
			specs = append(specs, wref{query: q, repeat: repeat})
		}
	}
	return specs
}()

// fleetGen emits the operator's cycle and keeps the model of which tenant
// is placed with which spec.
type fleetGen struct {
	rng     *rand.Rand
	perSpec int
	names   []string       // placed tenants, for O(1) seeded picks
	spec    map[string]int // tenant -> index into fleetSpecs
	pos     map[string]int
	arrived int
	shifted bool
}

func (g *fleetGen) add(name string, spec int) {
	g.pos[name] = len(g.names)
	g.names = append(g.names, name)
	g.spec[name] = spec
}

func (g *fleetGen) remove(name string) {
	i, last := g.pos[name], len(g.names)-1
	g.names[i] = g.names[last]
	g.pos[g.names[i]] = i
	g.names = g.names[:last]
	delete(g.pos, name)
	delete(g.spec, name)
}

// placementOp is the from-scratch placement of the base fleet; it resets
// the model, as it resets the server's placement.
func (g *fleetGen) placementOp() op {
	g.names, g.spec, g.pos = nil, map[string]int{}, map[string]int{}
	refs := make([]string, len(fleetSpecs))
	for i, s := range fleetSpecs {
		s.name = fmt.Sprintf("c%d", i)
		for j := 0; j < g.perSpec; j++ {
			g.add(fmt.Sprintf("%s-%04d", s.name, j), i)
		}
		refs[i] = strings.TrimSuffix(s.json(), "}") + fmt.Sprintf(`,"count":%d}`, g.perSpec)
	}
	return op{kind: kPlacement, method: "POST", path: "/v1/placement", want: int64(len(g.names)),
		body: `{"tenants":[` + strings.Join(refs, ",") + `]}`}
}

// eventOp is one seeded arrival, departure or drift.
func (g *fleetGen) eventOp() op {
	var ev string
	switch g.rng.Intn(3) {
	case 0:
		s := g.rng.Intn(len(fleetSpecs))
		ref := fleetSpecs[s]
		ref.name = fmt.Sprintf("n%d", g.arrived)
		g.arrived++
		g.add(ref.name, s)
		ev = `{"type":"arrive","tenant":` + ref.json() + `}`
	case 1:
		name := g.names[g.rng.Intn(len(g.names))]
		g.remove(name)
		ev = fmt.Sprintf(`{"type":"leave","name":%q}`, name)
	default:
		name := g.names[g.rng.Intn(len(g.names))]
		s := (g.spec[name] + 1 + g.rng.Intn(len(fleetSpecs)-1)) % len(fleetSpecs)
		g.spec[name] = s
		ref := fleetSpecs[s]
		ref.name = name
		ev = `{"type":"drift","tenant":` + ref.json() + `}`
	}
	return op{kind: kEvent, method: "POST", path: "/v1/placement/events", want: int64(len(g.names)),
		body: `{"events":[` + ev + `]}`}
}

// telemetryBody is the named-tenant what-if that feeds the managed
// tenants' sketches: both run Q13 until the shift, then w2 turns to point
// lookups.
func telemetryBody(shifted bool) string {
	w2 := "Q13"
	if shifted {
		w2 = "QPOINT"
	}
	refs := []wref{{name: "w1", query: "Q13", repeat: 2}, {name: "w2", query: w2, repeat: 2}}
	return `{"workloads":` + refsJSON(refs) + `,"allocations":[{"cpu":0.5,"memory":0.5,"io":0.5}]}`
}

// cycle emits the 50 ops of one operator cycle: the full placement, then
// three rounds of events, two telemetry what-ifs and an autotune tick.
func (g *fleetGen) cycle(sums [2]uint64) []op {
	ops := []op{g.placementOp()}
	tele := op{kind: kTelemetry, method: "POST", path: "/v1/whatif", body: telemetryBody(g.shifted), sum: sums[0]}
	if g.shifted {
		tele.sum = sums[1]
	}
	for _, events := range []int{13, 13, 14} {
		for i := 0; i < events; i++ {
			ops = append(ops, g.eventOp())
		}
		ops = append(ops, tele, tele, op{kind: kTrigger, method: "POST", path: "/v1/autotune/trigger"})
	}
	return ops
}

// placementHead is the part of a placement response before the class and
// machine lists, which is all the per-op check needs from ~170 KB.
type placementHead struct {
	TotalCost float64              `json:"total_cost"`
	Verified  bool                 `json:"verified"`
	Events    int                  `json:"events"`
	Stats     placement.SolveStats `json:"stats"`
}

var classesField = []byte(`,"classes":[`) // the list, not the count inside stats

func parsePlacementHead(payload []byte) (placementHead, error) {
	var h placementHead
	i := bytes.Index(payload, classesField)
	if i < 0 {
		return h, fmt.Errorf("not a placement response: %.200s", payload)
	}
	err := json.Unmarshal(append(payload[:i:i], '}'), &h)
	return h, err
}

type fleetRunner struct {
	seed int64
	sz   sizing
	tr   *tracer
	svc  *service
	gen  *fleetGen
	sums [2]uint64 // digests of the telemetry what-if responses before and after the shift

	actuations0     int64
	lastCost        float64
	classes         int
	reused, machine int64
}

func newFleet(seed int64, sz sizing, tr *tracer) *fleetRunner {
	return &fleetRunner{seed: seed, sz: sz, tr: tr}
}

func (w *fleetRunner) kinds() []string { return fleetKinds }

func (w *fleetRunner) setup() error {
	// The control loop of cmd/vdtuned -autotune in trigger-only mode. Both
	// managed tenants run the CPU-bound Q13; when w2 turns to point lookups
	// the 75/25 CPU split predicts a 3.6% gain on the calibrated small
	// grid, so the loop is run with a 2% gain threshold and must move once.
	svc, err := startService(w.tr, w.sz, 1, func(c *server.Config) {
		c.Telemetry = telemetry.NewHub(telemetry.Config{Window: 8})
		c.Autotune = &server.AutotuneOptions{
			Workloads: []server.WorkloadRef{{Name: "w1", Query: "Q13", Repeat: 2}, {Name: "w2", Query: "Q13", Repeat: 2}},
			Step:      0.25, ResolveEvery: 1, MinGain: 0.02, ConfirmTicks: 2, CooldownTicks: 4, MaxStepDelta: 0.25,
			Enabled: true,
		}
	})
	if err != nil {
		return err
	}
	w.svc = svc
	for i, shifted := range []bool{false, true} {
		code, want := inProcess(svc.ref, "POST", "/v1/whatif", telemetryBody(shifted))
		if code != http.StatusOK {
			return fmt.Errorf("reference what-if: status %d: %s", code, want)
		}
		w.sums[i] = digest(want)
	}
	w.gen = &fleetGen{rng: rand.New(rand.NewSource(w.seed)), perSpec: w.sz.scaled(fleetTenantsPerSpec, 2)}
	// Warm-up: one whole cycle.
	warm := w.gen.cycle(w.sums)
	for i := range warm {
		if _, err := w.do(0, &warm[i], nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	w.actuations0 = obs.Global.Counter("autotune.actuations").Value()
	w.reused, w.machine = 0, 0
	return nil
}

func (w *fleetRunner) lap(i int) [][]op {
	if i == fleetShiftLap {
		w.gen.shifted = true
	}
	var ops []op
	for c := 0; c < w.sz.scaled(fleetCyclesPerLap, 1); c++ {
		ops = append(ops, w.gen.cycle(w.sums)...)
	}
	return [][]op{ops}
}

func (w *fleetRunner) do(c int, o *op, ot *opTrace) (time.Duration, error) {
	start := time.Now()
	code, payload, err := w.svc.roundTrip(c, ot, o.method, o.path, o.body)
	d := time.Since(start)
	if ot != nil {
		ot.end = w.tr.now()
	}
	if err != nil {
		return d, err
	}
	if code != http.StatusOK {
		return d, fmt.Errorf("status %d: %.200s", code, payload)
	}
	switch o.kind {
	case kTelemetry:
		if digest(payload) != o.sum {
			return d, fmt.Errorf("what-if response differs from the reference server's: %.200s", payload)
		}
	case kTrigger:
		var dec autotune.Decision
		if err := json.Unmarshal(payload, &dec); err != nil {
			return d, err
		}
		if dec.Action != autotune.ActionApplied && dec.Action != autotune.ActionSuppressed && dec.Action != autotune.ActionSkipped {
			return d, fmt.Errorf("autotune tick %d: action %q: %s", dec.Tick, dec.Action, dec.Err)
		}
	default:
		h, err := parsePlacementHead(payload)
		if err != nil {
			return d, err
		}
		events := 0
		if o.kind == kEvent {
			events = 1
		}
		if !h.Verified || !(h.TotalCost > 0) || int64(h.Stats.Tenants) != o.want || h.Events != events {
			return d, fmt.Errorf("placement response %+v, want %d tenants and %d events", h, o.want, events)
		}
		w.lastCost, w.classes = h.TotalCost, h.Stats.Classes
		if o.kind == kEvent {
			w.reused += int64(h.Stats.ReusedMachines)
			w.machine += int64(h.Stats.Machines)
		}
	}
	return d, nil
}

func (w *fleetRunner) endLap(int) (time.Duration, error) { return 0, nil }

// finish checks that the control loop actuated exactly once — on the mix
// shift, never before or again — and that the incrementally maintained
// placement costs what a from-scratch solve of the final fleet costs.
func (w *fleetRunner) finish(bool) error {
	if n := obs.Global.Counter("autotune.actuations").Value() - w.actuations0; n != 1 {
		return fmt.Errorf("autotune actuated %d times over the run, want exactly 1", n)
	}
	refs := make([]string, 0, len(w.gen.names))
	for _, name := range w.gen.names {
		ref := fleetSpecs[w.gen.spec[name]]
		ref.name = name
		refs = append(refs, ref.json())
	}
	code, payload := inProcess(w.svc.ref, "POST", "/v1/placement", `{"tenants":[`+strings.Join(refs, ",")+`]}`)
	if code != http.StatusOK {
		return fmt.Errorf("from-scratch placement: status %d: %.200s", code, payload)
	}
	h, err := parsePlacementHead(payload)
	if err != nil {
		return err
	}
	if h.TotalCost != w.lastCost {
		return fmt.Errorf("incremental placement costs %v, a from-scratch solve of the same fleet %v", w.lastCost, h.TotalCost)
	}
	return nil
}

func (w *fleetRunner) engineState() (buffer.Stats, vm.Usage, float64) {
	return buffer.Stats{}, vm.Usage{}, 0
}

func (w *fleetRunner) layerMetrics(m metricSet, _ *tracer) {
	w.svc.calibrationMetrics(m)
	m["placement.machines_reused_ratio"] = ratio(float64(w.reused), float64(w.machine))
	m["placement.classes"] = float64(w.classes)
}

func (w *fleetRunner) close() {
	if w.svc != nil {
		w.svc.stop()
	}
}
