package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects hierarchical spans and exports them in the Chrome
// trace_event format (load the file at chrome://tracing or
// https://ui.perfetto.dev). It is safe for concurrent use: spans from
// different goroutines land on different track IDs, so parallel
// calibration workers render as parallel rows.
type Tracer struct {
	now   func() time.Time
	epoch time.Time

	mu      sync.Mutex
	events  []traceEvent
	nextTID atomic.Int64
}

// traceEvent is one complete ("ph":"X") Chrome trace event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`  // microseconds since the tracer epoch
	Dur  int64          `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer creates a tracer over the real clock.
func NewTracer() *Tracer { return NewTracerWithClock(time.Now) }

// NewTracerWithClock creates a tracer with an injectable clock, so tests
// can produce deterministic trace files.
func NewTracerWithClock(now func() time.Time) *Tracer {
	return &Tracer{now: now, epoch: now()}
}

// Span is one in-flight trace interval. The nil span is a valid no-op,
// so code instruments unconditionally and pays one branch when tracing
// is off. A span is owned by one goroutine; work handed to another
// goroutine starts its own root span.
type Span struct {
	tr    *Tracer
	name  string
	tid   int64
	start time.Time
	args  map[string]any
	done  bool
}

// Start begins a root span on a fresh track.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, tid: t.nextTID.Add(1), start: t.now()}
}

// Child begins a nested span on the same track as s; it renders stacked
// under s because its interval nests inside s's.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{tr: s.tr, name: name, tid: s.tid, start: s.tr.now()}
}

// SetArg attaches a key/value argument shown in the trace viewer.
func (s *Span) SetArg(key string, v any) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]any)
	}
	s.args[key] = v
}

// End finishes the span, recording it with the tracer. End is
// idempotent.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	t := s.tr
	end := t.now()
	ev := traceEvent{
		Name: s.name,
		Ph:   "X",
		TS:   s.start.Sub(t.epoch).Microseconds(),
		Dur:  end.Sub(s.start).Microseconds(),
		PID:  1,
		TID:  s.tid,
		Args: s.args,
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// chromeTrace is the container object the Chrome trace viewer expects.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeJSON writes all finished spans as a Chrome trace_event
// JSON document.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeFile dumps the trace to the given path.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
