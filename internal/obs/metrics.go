package obs

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil counter is a
// valid no-op, so disabled instrumentation costs one branch.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded value (0 for the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count of every histogram: power-of-two
// buckets spanning ~2.3e-10 .. 2.1e9 in the recorded unit (for seconds:
// sub-nanosecond to ~68 years), so the memory footprint is bounded no
// matter how many observations arrive.
const histBuckets = 64

// histBias maps a value's base-2 exponent onto [0, histBuckets).
const histBias = 32

// Histogram is a bounded, lock-free histogram over positive float64
// observations. Quantiles are estimated by log-linear interpolation
// inside power-of-two buckets, so any reported quantile is within a
// factor of 2 of the true order statistic (much closer in practice).
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a positive value to its bucket index.
func bucketOf(v float64) int {
	_, exp := math.Frexp(v) // v = f * 2^exp, f in [0.5, 1)
	b := exp + histBias
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLow returns the lower bound of bucket b.
func bucketLow(b int) float64 { return math.Ldexp(0.5, b-histBias) }

// newHistogram initializes the min/max sentinels; histograms must be
// created through a Registry (or this constructor), not as bare structs.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one observation. Negative and NaN values are clamped
// to zero so the count stays consistent.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.buckets[bucketOf(v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveSince records the wall-clock seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Quantile estimates the q-th quantile (q in [0, 1]) by interpolating
// within the containing power-of-two bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total-1)
	var seen float64
	for b := 0; b < histBuckets; b++ {
		n := float64(h.buckets[b].Load())
		if n == 0 {
			continue
		}
		if seen+n > rank {
			lo, hi := bucketLow(b), bucketLow(b+1)
			frac := (rank - seen) / n
			return lo + (hi-lo)*frac
		}
		seen += n
	}
	return math.Float64frombits(h.maxBits.Load())
}

// HistogramSnapshot is the exported view of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// snapshot captures the histogram's summary statistics.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
		Min:   math.Float64frombits(h.minBits.Load()),
		Max:   math.Float64frombits(h.maxBits.Load()),
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	} else {
		s.Mean = s.Sum / float64(s.Count)
	}
	s.P50 = h.Quantile(0.50)
	s.P95 = h.Quantile(0.95)
	s.P99 = h.Quantile(0.99)
	return s
}

// Registry holds named metrics. Creation is mutex-guarded and idempotent
// (the same name always returns the same metric); updates are atomic on
// the metric itself.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	windows    map[string]*WindowedHistogram
	extras     map[string]func() any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		windows:    make(map[string]*WindowedHistogram),
		extras:     make(map[string]func() any),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; !ok {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// Window returns (creating if needed) the named sliding-window
// histogram. Like the other constructors it is idempotent: the first
// call fixes the window geometry, later calls return the same instance
// regardless of their arguments.
func (r *Registry) Window(name string, slots int, slotDur time.Duration) *WindowedHistogram {
	r.mu.RLock()
	h, ok := r.windows[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.windows[name]; !ok {
		h = NewWindowedHistogram(slots, slotDur, nil)
		r.windows[name] = h
	}
	return h
}

// SetExtra registers a callback whose result is embedded under the given
// key in every snapshot — e.g. a per-figure summary built by a CLI.
func (r *Registry) SetExtra(key string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.extras[key] = fn
}

// CounterValues returns a point-in-time copy of every counter, keyed by
// name — the building block for before/after deltas.
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	return out
}

// MetricsSnapshot is the exported view of a whole registry.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Windows    map[string]HistogramSnapshot `json:"windows,omitempty"`
	Extra      map[string]any               `json:"extra,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := MetricsSnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.snapshot()
	}
	if len(r.windows) > 0 {
		s.Windows = make(map[string]HistogramSnapshot, len(r.windows))
		for n, h := range r.windows {
			s.Windows[n] = h.Snapshot()
		}
	}
	if len(r.extras) > 0 {
		s.Extra = make(map[string]any, len(r.extras))
		for k, fn := range r.extras {
			s.Extra[k] = fn()
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteMetricsFile dumps the Global registry to the given path; used by
// CLIs (-metrics-out) and the benchmark harness (DBVIRT_METRICS_OUT).
func WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Global.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
