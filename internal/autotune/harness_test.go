package autotune

// Shared harness for the control-loop tests: a tiny analytic cost model
// (no engine, no optimizer — decisions depend only on statement mixes
// and CPU shares), a fault-injecting wrapper that perturbs it the way a
// live measurement path would, and a rig that wires machine, VMs,
// telemetry hub, and loop together the same way the server does.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"dbvirt/internal/core"
	"dbvirt/internal/engine"
	"dbvirt/internal/faults"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
)

// Synthetic statements with known CPU sensitivity. The synthetic model
// never parses them; a what-if model binds them to each tenant's table
// T (tableDB).
const (
	stmtFlat   = "SELECT F FROM T" // CPU-insensitive
	stmtScan   = "SELECT S FROM T" // mildly CPU-sensitive
	stmtHungry = "SELECT H FROM T" // strongly CPU-sensitive
)

// synthModel prices a workload analytically from its statement mix: a
// deterministic, convex stand-in for the what-if model.
type synthModel struct {
	calls atomic.Int64
}

func (m *synthModel) Name() string { return "synth" }

func (m *synthModel) Cost(_ context.Context, w *core.WorkloadSpec, s vm.Shares) (float64, error) {
	m.calls.Add(1)
	var c float64
	for _, st := range w.Statements {
		switch st {
		case stmtHungry:
			c += 4.0 / (0.1 + s.CPU)
		case stmtScan:
			c += 1.0 / (0.4 + 0.6*s.CPU)
		default:
			c += 1.0
		}
	}
	return c, nil
}

// noisyModel perturbs an inner model with the seeded fault injector,
// keyed by (workload, shares, tick) — a fresh deterministic draw per
// tick, like re-measuring a live system. It deliberately sits OUTSIDE
// any memoization: a memoized noisy value would freeze, hiding exactly
// the flapping hazard the chaos tests exist to expose.
type noisyModel struct {
	inner core.CostModel
	inj   *faults.Injector
	tick  *atomic.Int64
}

func (m *noisyModel) Name() string { return "noisy-" + m.inner.Name() }

func (m *noisyModel) Cost(ctx context.Context, w *core.WorkloadSpec, s vm.Shares) (float64, error) {
	key := w.Name + "|" + shareKey(s) + "|" + itoa(m.tick.Load())
	out := m.inj.Measurement(key, 0)
	if out.Err != nil {
		return 0, out.Err
	}
	c, err := m.inner.Cost(ctx, w, s)
	if err != nil {
		return 0, err
	}
	return c * out.Scale, nil
}

func shareKey(s vm.Shares) string {
	q := func(f float64) int64 { return int64(f*1e6 + 0.5) }
	return itoa(q(s.CPU)) + ":" + itoa(q(s.Memory)) + ":" + itoa(q(s.IO))
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [24]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// rig is one assembled control loop over two synthetic tenants.
type rig struct {
	hub  *telemetry.Hub
	vms  []*vm.VM
	loop *Loop
	tick atomic.Int64 // advanced before every loop tick; keys the noise
}

// feedEntry is one (statement, count) pair of a deterministic feed.
type feedEntry struct {
	stmt string
	n    int
}

// feed streams a mix into a tenant's sketch in deterministic order.
func (r *rig) feed(tenant string, mix []feedEntry) {
	t := r.hub.Tenant(tenant)
	for _, e := range mix {
		for i := 0; i < e.n; i++ {
			t.ObserveQuery(e.stmt)
		}
	}
}

// step advances the noise tick and runs one loop tick.
func (r *rig) step(ctx context.Context) Decision {
	r.tick.Add(1)
	return r.loop.Tick(ctx)
}

// fixedClock is the deterministic clock for decision timestamps.
func fixedClock() func() time.Time {
	base := time.Unix(1700000000, 0).UTC()
	var n int64
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Second)
	}
}

// newRig builds a two-tenant loop. model defaults to a fresh synthModel;
// window is the sketch window size; dec the decider config.
func newRig(t *testing.T, model core.CostModel, window int, dec DeciderConfig) *rig {
	t.Helper()
	r := &rig{}
	if model == nil {
		model = &synthModel{}
	}
	r.hub = telemetry.NewHub(telemetry.Config{Window: window, TopK: 8})
	machine := vm.MustMachine(vm.DefaultMachineConfig())
	equal := core.EqualAllocation(2)
	var tenants []ManagedTenant
	for i, name := range []string{"t1", "t2"} {
		v, err := machine.NewVM(name, equal[i])
		if err != nil {
			t.Fatalf("NewVM(%s): %v", name, err)
		}
		r.vms = append(r.vms, v)
		tenants = append(tenants, ManagedTenant{
			Name:     name,
			DB:       tableDB(t),
			Fallback: []string{stmtScan, stmtFlat},
		})
	}
	loop, err := NewLoop(Config{
		Hub:          r.hub,
		Model:        model,
		VMs:          r.vms,
		Tenants:      tenants,
		Step:         0.25,
		Parallelism:  1,
		Decider:      dec,
		Clock:        fixedClock(),
		StartEnabled: true,
	})
	if err != nil {
		t.Fatalf("NewLoop: %v", err)
	}
	r.loop = loop
	return r
}

// tableDB returns a database holding a small analyzed table T(F, S, H),
// enough for a what-if model to plan the synthetic statements.
func tableDB(t *testing.T) *engine.Database {
	t.Helper()
	loader, err := vm.MustMachine(vm.DefaultMachineConfig()).NewVM("loader", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase()
	s, err := engine.NewSession(db, loader, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"CREATE TABLE T (F INT, S INT, H INT)",
		"INSERT INTO T VALUES (1, 2, 3), (4, 5, 6), (7, 8, 9)",
		"ANALYZE T",
	} {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return db
}

// chaosInjector returns the fault config the chaos tests run under: the
// DBVIRT_FAULTS spec when the suite runs inside the CI fault-injection
// job, else the default chaos mix (noise + spikes + transient errors).
func chaosInjector(t *testing.T) *faults.Injector {
	t.Helper()
	if inj, err := faults.FromEnv(); err != nil {
		t.Fatalf("parsing %s: %v", faults.EnvVar, err)
	} else if inj != nil {
		t.Logf("chaos: using %s spec %q", faults.EnvVar, inj.Config().String())
		return inj
	}
	return faults.New(faults.Config{
		Seed:       7,
		Transient:  0.05,
		Spike:      0.01,
		Noise:      0.5,
		NoiseSigma: 0.08,
	})
}
