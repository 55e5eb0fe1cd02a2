package obs

import (
	"math"
	"sync"
	"time"
)

// WindowedHistogram is a sliding-window companion to Histogram: it keeps
// the same power-of-two buckets in a ring of time slots and reports
// summary statistics over only the slots inside the window, so a scrape
// answers "what were the last N seconds like" instead of "what has
// happened since boot". Slots expire lazily on the next observation or
// snapshot — an idle histogram costs nothing.
//
// Unlike Histogram it is mutex-guarded rather than lock-free: windowed
// views exist for request-rate paths (hundreds per second), not the
// executor's per-batch hot path.
type WindowedHistogram struct {
	mu      sync.Mutex
	now     func() time.Time
	slotDur time.Duration
	slots   []windowSlot
}

// windowSlot is one time-slot's bucket counts; epoch identifies which
// absolute slot the entry holds, so stale entries are recognized and
// reset instead of expired eagerly.
type windowSlot struct {
	epoch   int64
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
}

// NewWindowedHistogram creates a window of slots*slotDur total span. A
// nil clock uses the wall clock; tests inject a fake for determinism.
func NewWindowedHistogram(slots int, slotDur time.Duration, clock func() time.Time) *WindowedHistogram {
	if slots < 1 {
		slots = 1
	}
	if slotDur <= 0 {
		slotDur = 10 * time.Second
	}
	if clock == nil {
		clock = time.Now
	}
	return &WindowedHistogram{now: clock, slotDur: slotDur, slots: make([]windowSlot, slots)}
}

// epoch returns the absolute slot number of the current instant.
func (h *WindowedHistogram) epoch() int64 {
	return h.now().UnixNano() / int64(h.slotDur)
}

// Observe records one observation into the current slot. Negative and
// NaN values clamp to zero, mirroring Histogram.
func (h *WindowedHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	e := h.epoch()
	h.mu.Lock()
	s := &h.slots[e%int64(len(h.slots))]
	if s.epoch != e {
		*s = windowSlot{epoch: e, min: math.Inf(1), max: math.Inf(-1)}
	}
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// Snapshot merges the live slots (those whose epoch lies inside the
// window ending now) into one summary.
func (h *WindowedHistogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	e := h.epoch()
	lo := e - int64(len(h.slots)) + 1
	var merged windowSlot
	merged.min, merged.max = math.Inf(1), math.Inf(-1)
	h.mu.Lock()
	for i := range h.slots {
		s := &h.slots[i]
		if s.epoch < lo || s.epoch > e || s.count == 0 {
			continue
		}
		merged.count += s.count
		merged.sum += s.sum
		if s.min < merged.min {
			merged.min = s.min
		}
		if s.max > merged.max {
			merged.max = s.max
		}
		for b := range s.buckets {
			merged.buckets[b] += s.buckets[b]
		}
	}
	h.mu.Unlock()

	snap := HistogramSnapshot{Count: merged.count, Sum: merged.sum, Min: merged.min, Max: merged.max}
	if merged.count == 0 {
		return HistogramSnapshot{}
	}
	snap.Mean = merged.sum / float64(merged.count)
	snap.P50 = bucketQuantile(&merged.buckets, merged.count, 0.50, merged.max)
	snap.P95 = bucketQuantile(&merged.buckets, merged.count, 0.95, merged.max)
	snap.P99 = bucketQuantile(&merged.buckets, merged.count, 0.99, merged.max)
	return snap
}

// bucketQuantile estimates a quantile from power-of-two bucket counts by
// log-linear interpolation — the same estimator Histogram.Quantile uses.
func bucketQuantile(buckets *[histBuckets]int64, total int64, q, max float64) float64 {
	rank := q * float64(total-1)
	var seen float64
	for b := 0; b < histBuckets; b++ {
		n := float64(buckets[b])
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
	return max
}
