package telemetry

import (
	"sort"
)

// Sample is one retained reservoir element: a predicted cost vector (one
// entry per candidate allocation of the request that produced it) tagged
// with the deterministic priority that admitted it.
type Sample struct {
	Priority uint64    `json:"priority"`
	Seq      uint64    `json:"seq"`
	Vec      []float64 `json:"vec"`
}

// Reservoir is a bounded uniform sample of cost vectors using the
// priority method (A-Res without weights): every arriving item draws a
// deterministic pseudo-random priority from (seed, arrival index) and the
// reservoir keeps the cap items with the highest priorities, so
// membership is a pure function of the seed and the stream. Not safe for
// concurrent use; Tenant serializes access.
type Reservoir struct {
	cap   int
	seed  uint64
	seq   uint64
	items []Sample // kept sorted by (priority desc, seq asc)
}

// NewReservoir creates a reservoir keeping at most cap samples, with all
// randomness derived from seed.
func NewReservoir(cap int, seed uint64) *Reservoir {
	if cap < 1 {
		cap = 1
	}
	return &Reservoir{cap: cap, seed: seed}
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mix used
// to derive item priorities from (seed, sequence number). Deterministic
// by construction — no global RNG, no time.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seen returns how many vectors were offered to the reservoir.
func (r *Reservoir) Seen() uint64 { return r.seq }

// Add offers one cost vector. The vector is copied, so callers may reuse
// their slice.
func (r *Reservoir) Add(vec []float64) {
	r.seq++
	s := Sample{Priority: splitmix64(r.seed ^ r.seq*0x9e3779b97f4a7c15), Seq: r.seq}
	if len(r.items) >= r.cap && sampleLess(r.items[len(r.items)-1], s) {
		return // sorts below the current minimum: never admitted
	}
	s.Vec = append([]float64(nil), vec...)
	r.insert(s)
}

// sampleLess orders samples by (priority desc, seq asc, len(vec) asc,
// lexicographic vec) — a total order so trimming is deterministic.
func sampleLess(a, b Sample) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if len(a.Vec) != len(b.Vec) {
		return len(a.Vec) < len(b.Vec)
	}
	for i := range a.Vec {
		if a.Vec[i] != b.Vec[i] {
			return a.Vec[i] < b.Vec[i]
		}
	}
	return false
}

func (r *Reservoir) insert(s Sample) {
	i := sort.Search(len(r.items), func(i int) bool { return !sampleLess(r.items[i], s) })
	r.items = append(r.items, Sample{})
	copy(r.items[i+1:], r.items[i:])
	r.items[i] = s
	if len(r.items) > r.cap {
		r.items = r.items[:r.cap]
	}
}

// Snapshot returns the retained samples in deterministic (priority desc)
// order.
func (r *Reservoir) Snapshot() []Sample {
	out := make([]Sample, len(r.items))
	copy(out, r.items)
	return out
}
