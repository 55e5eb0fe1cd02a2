package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentMetrics hammers one counter, one gauge, and one
// histogram from many goroutines; under -race this is the data-race
// stress test for the whole registry, and the totals check that no
// update is lost.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("test.counter")
			h := r.Histogram("test.hist")
			ga := r.Gauge("test.gauge")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i%100) + 0.5)
				ga.Set(float64(g))
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("test.counter").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	h := r.Histogram("test.hist")
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	s := h.snapshot()
	if s.Min != 0.5 {
		t.Errorf("histogram min = %g, want 0.5", s.Min)
	}
	if s.Max != 99.5 {
		t.Errorf("histogram max = %g, want 99.5", s.Max)
	}
	// Σ_{i=0..99}(i+0.5) = 5000 per 100 observations.
	wantSum := float64(goroutines*perG) / 100 * 5000
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("histogram sum = %g, want %g", s.Sum, wantSum)
	}
	g := r.Gauge("test.gauge").Value()
	if g < 0 || g >= goroutines {
		t.Errorf("gauge = %g, want in [0, %d)", g, goroutines)
	}
}

// TestConcurrentSpans creates spans from many goroutines; under -race
// this exercises the tracer's append path and TID allocation.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.Start("work")
				sp.SetArg("worker", w)
				child := sp.Child("inner")
				child.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if got, want := tr.Len(), workers*50*2+1; got != want {
		t.Fatalf("tracer recorded %d events, want %d", got, want)
	}
}

// TestSinksRaceClose emits spans and log lines from many goroutines
// while Close uninstalls the sinks; under -race this checks that the
// process-wide sinks need no locking by their callers.
func TestSinksRaceClose(t *testing.T) {
	flags := Flags{TraceOut: filepath.Join(t.TempDir(), "trace.json"), LogLevel: "error"}
	if _, err := flags.Setup("test"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := StartSpan("work")
				sp.Child("inner").End()
				Debug("dropped", "i", i)
				sp.End()
			}
		}()
	}
	if err := Close(); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if StartSpan("after") != nil {
		t.Error("StartSpan returned a span after Close")
	}
}

// TestNilTelemetryIsNoop checks the disabled path: with no sinks
// installed, the package span and log functions, and every method of a
// nil span, counter, histogram, and logger, must be safe.
func TestNilTelemetryIsNoop(t *testing.T) {
	sp := StartSpan("x")
	if sp != nil {
		t.Fatal("StartSpan with no tracer installed returned a span")
	}
	sp.SetArg("k", 1)
	sp.Child("c").End()
	sp.End()
	Debug("d")
	Info("i", "k", 1)
	Warn("w")
	Error("e")
	if err := Close(); err != nil {
		t.Fatalf("Close with no sinks: %v", err)
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has observations")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var l *Logger
	l.Info("nope")
}

// TestHistogramQuantiles feeds a known distribution and checks the
// estimated quantiles stay within the documented factor-of-2 bucket
// error (they are much tighter in practice).
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	// 1..1000 milliseconds, uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	checks := []struct {
		q, want float64
	}{
		{0.50, 0.500},
		{0.95, 0.950},
		{0.99, 0.990},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("p%.0f = %g, want within [%g, %g]", c.q*100, got, c.want/2, c.want*2)
		}
	}
	if h.Quantile(0) <= 0 {
		t.Errorf("p0 = %g, want > 0", h.Quantile(0))
	}
	if got := h.Quantile(1); math.Abs(got-1.0) > 1.0 {
		t.Errorf("p100 = %g, want ~1.0", got)
	}
	s := h.snapshot()
	if s.Count != 1000 || s.Min != 0.001 || s.Max != 1.0 {
		t.Errorf("snapshot = %+v, want count=1000 min=0.001 max=1", s)
	}
	if math.Abs(s.Mean-0.5005) > 1e-9 {
		t.Errorf("mean = %g, want 0.5005", s.Mean)
	}
}

// TestRegistrySnapshotJSON checks the export shape: counters, gauges,
// histograms, and extras all land under their keys.
func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.hits").Add(3)
	r.Gauge("b.level").Set(0.25)
	r.Histogram("c.lat").Observe(0.5)
	r.SetExtra("figures", func() any { return []string{"fig3"} })

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters   map[string]int64             `json:"counters"`
		Gauges     map[string]float64           `json:"gauges"`
		Histograms map[string]HistogramSnapshot `json:"histograms"`
		Extra      map[string]any               `json:"extra"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, buf.String())
	}
	if decoded.Counters["a.hits"] != 3 {
		t.Errorf("counter a.hits = %d, want 3", decoded.Counters["a.hits"])
	}
	if decoded.Gauges["b.level"] != 0.25 {
		t.Errorf("gauge b.level = %g, want 0.25", decoded.Gauges["b.level"])
	}
	if decoded.Histograms["c.lat"].Count != 1 {
		t.Errorf("histogram c.lat count = %d, want 1", decoded.Histograms["c.lat"].Count)
	}
	if decoded.Extra["figures"] == nil {
		t.Error("extra figures missing from snapshot")
	}
}

// TestLoggerJSONLines checks level filtering and the JSON-lines shape.
func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	l := NewLoggerWithClock(&buf, LevelInfo, func() time.Time { return fixed })
	l.Debug("dropped")
	l.Info("kept", "rounds", 3, "total", 1.5)
	l.Error("bad", "err", "boom")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, lines[0])
	}
	if ev["msg"] != "kept" || ev["level"] != "info" || ev["rounds"] != float64(3) {
		t.Errorf("unexpected event %v", ev)
	}
	if ev["ts"] != "2026-08-06T12:00:00Z" {
		t.Errorf("ts = %v", ev["ts"])
	}
	if !l.Enabled(LevelWarn) || l.Enabled(LevelDebug) {
		t.Error("level filtering broken")
	}
}

// TestParseLevel covers the accepted names and the error path.
func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "": LevelInfo,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud): want error")
	}
}

// TestVersionNonEmpty sanity-checks the -version string source.
func TestVersionNonEmpty(t *testing.T) {
	if v := Version(); v == "" {
		t.Fatal("Version() is empty")
	}
}
