// Package telemetry is the per-tenant workload observability layer: each
// tenant's query traffic streams into a bounded sketch — a space-saving
// top-k heavy-hitter summary over normalized SQL — and consecutive sketch
// windows are scored for drift, so a controller can see *that* a tenant's
// workload has shifted (and how badly the cost model is tracking it)
// without retaining the traffic itself.
//
// Like internal/obs, this package imports no other dbvirt packages, so
// the engine, the server, and the CLIs can all feed it without cycles,
// and everything is near-zero-cost when no tenant is registered: sketch
// updates are a map operation and two or three atomic adds.
package telemetry

import (
	"slices"
	"sort"
)

// TopKEntry is one heavy hitter: the key (normalized SQL), its estimated
// count, and the maximum overestimation error. The true count lies in
// [Count-Err, Count].
type TopKEntry struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	Err   int64  `json:"err"`
}

// TopK is a space-saving heavy-hitter sketch (Metwally et al.): at most K
// counters are kept; an unseen key evicts the smallest counter and
// inherits its count as error. For any key whose true frequency exceeds
// N/K the sketch is guaranteed to contain it, and reported counts
// overestimate by at most the inherited error. TopK is not safe for
// concurrent use; Tenant serializes access.
type TopK struct {
	k        int
	counters map[string]*topkCounter
	total    int64 // total stream mass observed (including evicted keys)
}

type topkCounter struct {
	count int64
	err   int64
}

// NewTopK creates a sketch retaining at most k keys (k < 1 means 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, counters: make(map[string]*topkCounter, k)}
}

// K returns the sketch capacity.
func (t *TopK) K() int { return t.k }

// Total returns the total stream mass observed, including keys whose
// counters were evicted.
func (t *TopK) Total() int64 { return t.total }

// Update adds n occurrences of key (n < 1 counts as 1).
func (t *TopK) Update(key string, n int64) {
	if n < 1 {
		n = 1
	}
	t.total += n
	if c, ok := t.counters[key]; ok {
		c.count += n
		return
	}
	if len(t.counters) < t.k {
		t.counters[key] = &topkCounter{count: n}
		return
	}
	// Evict the minimum counter; ties break on the lexicographically
	// smallest key so eviction (and therefore the whole sketch) is a
	// deterministic function of the update sequence.
	minKey := ""
	var minC *topkCounter
	for k, c := range t.counters {
		if minC == nil || c.count < minC.count || (c.count == minC.count && k < minKey) {
			minKey, minC = k, c
		}
	}
	delete(t.counters, minKey)
	t.counters[key] = &topkCounter{count: minC.count + n, err: minC.count}
}

// entries returns all counters ordered by (count desc, err asc, key asc).
func (t *TopK) entries() []TopKEntry {
	out := make([]TopKEntry, 0, len(t.counters))
	for k, c := range t.counters {
		out = append(out, TopKEntry{Key: k, Count: c.count, Err: c.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Err != out[j].Err {
			return out[i].Err < out[j].Err
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Snapshot returns the sketch contents in deterministic order.
func (t *TopK) Snapshot() []TopKEntry { return t.entries() }

// Count returns the estimated count of key (0 when not retained).
func (t *TopK) Count(key string) int64 {
	if c, ok := t.counters[key]; ok {
		return c.count
	}
	return 0
}

// Distance is the total-variation distance between the frequency
// distributions two sketches describe, in [0, 1]: 0 for identical
// distributions, 1 for disjoint support. Retained counts are normalized
// by each sketch's total mass, so streams of different lengths compare by
// shape, not volume. Two empty sketches are identical (0); one empty
// sketch is maximally distant (1) from any non-empty one. The result is a
// deterministic function of the two sketches' contents and symmetric to
// the bit.
func Distance(a, b *TopK) float64 {
	aEmpty := a == nil || a.total == 0
	bEmpty := b == nil || b.total == 0
	if aEmpty && bEmpty {
		return 0
	}
	if aEmpty || bEmpty {
		return 1
	}
	keys := make([]string, 0, len(a.counters)+len(b.counters))
	for k := range a.counters {
		keys = append(keys, k)
	}
	for k := range b.counters {
		if _, ok := a.counters[k]; !ok {
			keys = append(keys, k)
		}
	}
	// Sum in key order: float addition is not associative, so summing in
	// map order would let equal inputs differ in the low bits.
	slices.Sort(keys)
	var d float64
	for _, k := range keys {
		fa := float64(a.Count(k)) / float64(a.total)
		fb := float64(b.Count(k)) / float64(b.total)
		if fa > fb {
			d += fa - fb
		} else {
			d += fb - fa
		}
	}
	d /= 2
	if d > 1 {
		d = 1
	}
	return d
}
