package executor

import "math/bits"

// intTable is an open-addressed (linear probing) hash table from int64
// keys to the small non-negative numbers its users give their entries —
// a hash join's buckets, an aggregate's groups. It never deletes.
type intTable struct {
	keys  []int64
	ents  []int32 // -1 marks an empty slot
	used  int
	shift uint // 64 - log2(len(keys))
}

// slot returns the slot of key k: the one holding it, or the empty one
// where it belongs. The table must have room.
func (t *intTable) slot(k int64) int {
	mask := len(t.keys) - 1
	// Fibonacci hashing: the top bits of k × 2^64/φ spread dense keys.
	i := int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift)
	for t.ents[i] >= 0 && t.keys[i] != k {
		i = (i + 1) & mask
	}
	return i
}

// find returns the entry of key k, or -1.
func (t *intTable) find(k int64) int32 {
	if t.used == 0 {
		return -1
	}
	return t.ents[t.slot(k)]
}

// entry returns the entry of key k, which becomes fresh if k is new.
func (t *intTable) entry(k int64, fresh int32) int32 {
	if 2*(t.used+1) > len(t.keys) {
		t.resize(max(256, 2*len(t.keys)))
	}
	i := t.slot(k)
	if t.ents[i] < 0 {
		t.keys[i], t.ents[i] = k, fresh
		t.used++
	}
	return t.ents[i]
}

// resize rebuilds the table with n slots, a power of two.
func (t *intTable) resize(n int) {
	keys, ents := t.keys, t.ents
	t.keys, t.ents = make([]int64, n), make([]int32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := range t.ents {
		t.ents[i] = -1
	}
	for i, e := range ents {
		if e >= 0 {
			s := t.slot(keys[i])
			t.keys[s], t.ents[s] = keys[i], e
		}
	}
}
