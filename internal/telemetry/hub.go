package telemetry

import (
	"sort"
	"sync"

	"dbvirt/internal/obs"
)

// Config parameterizes a Hub; the zero value gets the documented
// defaults.
type Config struct {
	// TopK is the heavy-hitter sketch capacity per window (default 32).
	TopK int
	// Window is the number of sketch updates per drift window: every
	// Window updates the current sketch closes, is scored against its
	// predecessor, and a fresh window opens (default 64).
	Window int
	// Registry receives the telemetry gauges and counters (default
	// obs.Global).
	Registry *obs.Registry
}

const (
	// sampleCap bounds the per-tenant cost-vector reservoir.
	sampleCap = 64
	// driftAlpha is the drift EWMA smoothing factor.
	driftAlpha = 0.5
	// driftThreshold is the smoothed drift score above which a tenant
	// counts as shifted.
	driftThreshold = 0.25
	// residualAlpha smooths the model-residual EWMAs.
	residualAlpha = 0.2
	// reservoirSeed derives every reservoir priority.
	reservoirSeed = 1
	// maxTenants bounds the tenant table; tenants beyond it collapse into
	// a shared "other" tenant so memory stays bounded under tenant churn.
	maxTenants = 256
)

func (c *Config) applyDefaults() {
	if c.TopK <= 0 {
		c.TopK = 32
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Registry == nil {
		c.Registry = obs.Global
	}
}

// Hub owns every tenant's telemetry. The nil Hub is a valid no-op (its
// Tenant method returns the nil Tenant, whose observers no-op), so
// instrumented code never branches on configuration.
type Hub struct {
	cfg Config

	mUpdates   *obs.Counter
	mRotations *obs.Counter
	mAlarms    *obs.Counter
	mResiduals *obs.Counter
	gDriftMax  *obs.Gauge

	mu      sync.Mutex
	tenants map[string]*Tenant
}

// NewHub creates a hub over cfg.
func NewHub(cfg Config) *Hub {
	cfg.applyDefaults()
	r := cfg.Registry
	return &Hub{
		cfg:        cfg,
		mUpdates:   r.Counter("telemetry.sketch.updates"),
		mRotations: r.Counter("telemetry.window.rotations"),
		mAlarms:    r.Counter("telemetry.drift.alarms"),
		mResiduals: r.Counter("telemetry.residual.samples"),
		gDriftMax:  r.Gauge("telemetry.drift.max"),
		tenants:    make(map[string]*Tenant),
	}
}

// Tenant returns (creating if needed) the named tenant's telemetry.
// Beyond maxTenants distinct names, the shared "other" tenant absorbs
// the overflow. Safe for concurrent use; nil Hub returns nil.
func (h *Hub) Tenant(name string) *Tenant {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if t, ok := h.tenants[name]; ok {
		return t
	}
	if len(h.tenants) >= maxTenants {
		name = "other"
		if t, ok := h.tenants[name]; ok {
			return t
		}
	}
	t := h.newTenantLocked(name)
	h.tenants[name] = t
	return t
}

func (h *Hub) newTenantLocked(name string) *Tenant {
	r := h.cfg.Registry
	return &Tenant{
		hub:      h,
		name:     name,
		window:   h.cfg.Window,
		cur:      NewTopK(h.cfg.TopK),
		sample:   NewReservoir(sampleCap, reservoirSeed),
		drift:    NewDriftDetector(driftAlpha, driftThreshold),
		residual: NewResidualTracker(residualAlpha),
		gRaw:     r.Gauge("telemetry.drift.raw." + name),
		gScore:   r.Gauge("telemetry.drift.score." + name),
		gRelErr:  r.Gauge("telemetry.residual.relerr." + name),
		gBias:    r.Gauge("telemetry.residual.bias." + name),
	}
}

// driftMax recomputes the fleet-wide maximum smoothed drift gauge; the
// caller holds no tenant locks (gauge writes are atomic).
func (h *Hub) driftMax() {
	h.mu.Lock()
	tenants := make([]*Tenant, 0, len(h.tenants))
	for _, t := range h.tenants {
		tenants = append(tenants, t)
	}
	h.mu.Unlock()
	var max float64
	for _, t := range tenants {
		if s := t.DriftScore(); s > max {
			max = s
		}
	}
	h.gDriftMax.Set(max)
}

// TenantSnapshot is the deterministic exported view of one tenant.
type TenantSnapshot struct {
	Name           string      `json:"name"`
	Updates        int64       `json:"updates"`
	Windows        int         `json:"windows"`
	DriftRaw       float64     `json:"drift_raw"`
	DriftScore     float64     `json:"drift_score"`
	DriftAlarmed   bool        `json:"drift_alarmed"`
	ResidualCount  int64       `json:"residual_count"`
	ResidualRelErr float64     `json:"residual_relerr"`
	ResidualBias   float64     `json:"residual_bias"`
	TopK           []TopKEntry `json:"topk"`
	SamplesSeen    uint64      `json:"samples_seen"`
	SamplesKept    int         `json:"samples_kept"`
}

// Snapshot captures every tenant in name order — the deterministic body
// of /debug/telemetry.
func (h *Hub) Snapshot() []TenantSnapshot {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	names := make([]string, 0, len(h.tenants))
	for n := range h.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	tenants := make([]*Tenant, len(names))
	for i, n := range names {
		tenants[i] = h.tenants[n]
	}
	h.mu.Unlock()
	out := make([]TenantSnapshot, len(tenants))
	for i, t := range tenants {
		out[i] = t.Snapshot()
	}
	return out
}

// Tenant is one tenant's streaming telemetry: the current and previous
// sketch windows, the drift detector over their sequence, and the
// model-residual tracker. All methods are safe for concurrent use and
// no-op on the nil Tenant.
type Tenant struct {
	hub    *Hub
	name   string
	window int

	mu       sync.Mutex
	updates  int64
	inWindow int
	windows  int
	prev     *TopK
	cur      *TopK
	sample   *Reservoir
	drift    *DriftDetector
	residual *ResidualTracker

	gRaw, gScore, gRelErr, gBias *obs.Gauge
}

// ObserveQuery streams one executed (or priced) statement, identified by
// its sql.Normalize text, into the current sketch window. The sketch
// counts concrete statements: two that differ only in a literal value are
// two keys. Every Window
// observations the window closes and is drift-scored against its
// predecessor.
func (t *Tenant) ObserveQuery(normSQL string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.updates++
	t.inWindow++
	t.cur.Update(normSQL, 1)
	rotate := t.inWindow >= t.window
	if rotate {
		t.rotateLocked()
	}
	t.mu.Unlock()
	t.hub.mUpdates.Inc()
	if rotate {
		t.hub.driftMax()
	}
}

// rotateLocked closes the current window: scores it against the previous
// one, publishes the gauges, and opens a fresh window.
func (t *Tenant) rotateLocked() {
	raw, smoothed := t.drift.Score(t.prev, t.cur)
	t.windows++
	t.prev, t.cur = t.cur, NewTopK(t.cur.K())
	t.inWindow = 0
	t.gRaw.Set(raw)
	t.gScore.Set(smoothed)
	t.hub.mRotations.Inc()
	if t.drift.Alarmed() {
		t.hub.mAlarms.Inc()
	}
}

// ObserveCosts streams one predicted cost vector (the tenant's what-if
// row: one entry per candidate allocation) into the seeded reservoir.
func (t *Tenant) ObserveCosts(vec []float64) {
	if t == nil || len(vec) == 0 {
		return
	}
	t.mu.Lock()
	t.sample.Add(vec)
	t.mu.Unlock()
}

// ObserveResidual folds one predicted-vs-actual execution-time pair into
// the calibration-drift EWMAs and publishes the gauges.
func (t *Tenant) ObserveResidual(predicted, actual float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	before := t.residual.Samples()
	t.residual.Observe(predicted, actual)
	counted := t.residual.Samples() > before
	relErr, bias := t.residual.RelErr(), t.residual.Bias()
	t.mu.Unlock()
	if counted {
		t.hub.mResiduals.Inc()
		t.gRelErr.Set(relErr)
		t.gBias.Set(bias)
	}
}

// Mix returns the tenant's current workload mix: the heavy hitters of
// the most recently closed sketch window, or — before the first rotation
// has produced one — of the in-progress window. Controllers derive
// representative workload specs from this, so it prefers the closed
// window (a complete, stable sample) over the partially-filled current
// one. Entries come back in the sketch's deterministic order.
func (t *Tenant) Mix() []TopKEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.prev != nil && t.prev.Total() > 0 {
		return t.prev.Snapshot()
	}
	return t.cur.Snapshot()
}

// DriftScore returns the smoothed drift score.
func (t *Tenant) DriftScore() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drift.Smoothed()
}

// Alarmed reports whether the smoothed drift score exceeds the
// threshold.
func (t *Tenant) Alarmed() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drift.Alarmed()
}

// Snapshot captures the tenant's state deterministically.
func (t *Tenant) Snapshot() TenantSnapshot {
	if t == nil {
		return TenantSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TenantSnapshot{
		Name:           t.name,
		Updates:        t.updates,
		Windows:        t.windows,
		DriftRaw:       t.drift.Raw(),
		DriftScore:     t.drift.Smoothed(),
		DriftAlarmed:   t.drift.Alarmed(),
		ResidualCount:  t.residual.Samples(),
		ResidualRelErr: t.residual.RelErr(),
		ResidualBias:   t.residual.Bias(),
		TopK:           t.cur.Snapshot(),
		SamplesSeen:    t.sample.Seen(),
		SamplesKept:    len(t.sample.Snapshot()),
	}
}
