package obs

import (
	"io"
	"time"
)

// Len returns how many records are currently held (≤ capacity).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next < uint64(len(f.ring)) {
		return int(f.next)
	}
	return len(f.ring)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// NewLoggerWithClock is NewLogger with an injectable clock for tests.
func NewLoggerWithClock(w io.Writer, min Level, now func() time.Time) *Logger {
	return &Logger{w: w, min: min, now: now}
}

// Sampled reports the sampled bit of the flags field.
func (sc SpanContext) Sampled() bool { return sc.Flags&0x01 != 0 }

// Len returns the number of finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
