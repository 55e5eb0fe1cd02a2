package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// FlightRecord is one completed request's summary as kept by the flight
// recorder: enough to reconstruct what the server was doing just before
// an incident without storing bodies or unbounded detail.
type FlightRecord struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	TraceID string    `json:"trace_id,omitempty"`
	SpanID  string    `json:"span_id,omitempty"`
	Method  string    `json:"method,omitempty"`
	Path    string    `json:"path,omitempty"`
	Status  int       `json:"status,omitempty"`
	Micros  int64     `json:"micros"`
}

// FlightRecorder is a bounded ring buffer of the most recent
// FlightRecords. Writes are O(1) and never allocate once the ring is
// warm; readers get a copy in arrival order. The nil recorder no-ops.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []FlightRecord
	next uint64 // total records ever written; ring index is next % len
}

// NewFlightRecorder creates a recorder holding the last n records
// (minimum 1).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	return &FlightRecorder{ring: make([]FlightRecord, n)}
}

// Record appends one record, overwriting the oldest when full. The Seq
// field is assigned by the recorder.
func (f *FlightRecorder) Record(rec FlightRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	rec.Seq = f.next
	f.ring[f.next%uint64(len(f.ring))] = rec
	f.next++
	f.mu.Unlock()
}

// Snapshot returns the held records oldest-first.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := uint64(len(f.ring))
	start, count := uint64(0), f.next
	if f.next > n {
		start, count = f.next-n, n
	}
	out := make([]FlightRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, f.ring[(start+i)%n])
	}
	return out
}

// WriteJSON writes the snapshot as an indented JSON document.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Records []FlightRecord `json:"records"`
	}{Records: f.Snapshot()})
}

// Flight is the process-wide flight recorder, mirroring the Global
// metrics registry: always present, bounded, and shared by every server
// and debug endpoint in the process.
var Flight = NewFlightRecorder(256)
