// Package memo is the tree's one memoization layer: a bounded map with a
// single eviction policy (Gen), and on top of it a concurrency-safe memo
// that computes each key once and lets concurrent callers join the
// computation in flight (Memo). Every value memoized here must be a pure
// function of its key, so that an evicted entry costs a recomputation and
// never a different answer.
package memo

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"dbvirt/internal/obs"
)

// Gen is an unsynchronised map bounded by generations. It keeps a current
// and an old generation of at most Cap entries each: a hit in the old one
// carries the entry into the current one, and a full current generation
// retires the old one. A working set that fits one generation stays
// resident; never-repeated keys turn over without growing. The zero value
// is an unbounded map; callers lock around it.
type Gen[K comparable, V any] struct {
	Cap      int          // entries per generation; 0 means unbounded
	Evict    *obs.Counter // counts entries dropped by turnover; may be nil
	cur, old map[K]V
}

// Get returns the value held for k.
func (g *Gen[K, V]) Get(k K) (V, bool) {
	v, ok := g.cur[k]
	if !ok {
		if v, ok = g.old[k]; ok {
			g.Put(k, v)
		}
	}
	return v, ok
}

// Put stores v under k in the current generation.
func (g *Gen[K, V]) Put(k K, v V) {
	if _, had := g.cur[k]; !had {
		delete(g.old, k)
		if g.Cap > 0 && len(g.cur) >= g.Cap {
			g.Evict.Add(int64(len(g.old)))
			g.old, g.cur = g.cur, nil
		}
	}
	if g.cur == nil {
		g.cur = make(map[K]V)
	}
	g.cur[k] = v
}

// Len reports the number of entries held, at most 2×Cap when bounded.
func (g *Gen[K, V]) Len() int { return len(g.cur) + len(g.old) }

// Counters are the caller's metrics for one Memo; a nil counter is not
// counted. Every call is a hit, a join, or a computation it led.
type Counters struct {
	Hit  *obs.Counter // calls answered by a completed entry
	Join *obs.Counter // calls that joined a computation in flight
}

// shardCount spreads a hashed Memo's lock so concurrent solver workers
// rarely contend.
const shardCount = 16

// Memo computes each key at most once among concurrent and remembered
// callers. Completed values live in a Gen per shard; errors are never
// retained, so the next caller computes a failed key again.
type Memo[K comparable, V any] struct {
	hash   func(K) uint64
	shards []shard[K, V]
	c      Counters
}

type shard[K comparable, V any] struct {
	mu     sync.Mutex
	done   Gen[K, V]
	flight []*call[K, V] // at most one per caller running: scanned, not hashed
}

// call is one computation in flight; done closes once val and err are final.
type call[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
}

// New returns a Memo whose generations hold capacity completed entries
// (0 means unbounded). hash spreads keys over lock shards; nil is one lock.
func New[K comparable, V any](capacity int, hash func(K) uint64, c Counters) *Memo[K, V] {
	n := shardCount
	if hash == nil {
		n, hash = 1, func(K) uint64 { return 0 }
	}
	m := &Memo[K, V]{hash: hash, shards: make([]shard[K, V], n), c: c}
	for i := range m.shards {
		m.shards[i].done = Gen[K, V]{Cap: (capacity + n - 1) / n}
	}
	return m
}

func (m *Memo[K, V]) shard(k K) *shard[K, V] {
	return &m.shards[m.hash(k)%uint64(len(m.shards))]
}

// Put stores an already computed value, as if Do had computed it.
func (m *Memo[K, V]) Put(k K, v V) {
	sh := m.shard(k)
	sh.mu.Lock()
	sh.done.Put(k, v)
	sh.mu.Unlock()
}

// Do returns the value of k: the completed entry, else the result of the
// computation in flight, else compute's, which this call then leads (led
// is true) and, on success, leaves as the completed entry. A joiner whose
// ctx ends stops waiting while the computation continues for the others.
// A panic in compute becomes the error of the leader and of every joiner.
// compute does not escape, so a hit on a completed entry allocates nothing.
func (m *Memo[K, V]) Do(ctx context.Context, k K, compute func() (V, error)) (v V, led bool, err error) {
	return m.do(ctx, k, compute, true)
}

// Flight is Do without the memory: the key is forgotten when its
// computation completes. It is for results that stop being true later.
func (m *Memo[K, V]) Flight(ctx context.Context, k K, compute func() (V, error)) (v V, led bool, err error) {
	return m.do(ctx, k, compute, false)
}

func (m *Memo[K, V]) do(ctx context.Context, k K, compute func() (V, error), keep bool) (v V, led bool, err error) {
	sh := m.shard(k)
	sh.mu.Lock()
	if held, ok := sh.done.Get(k); ok {
		sh.mu.Unlock()
		m.c.Hit.Inc()
		return held, false, nil
	}
	for _, c := range sh.flight {
		if c.key == k {
			sh.mu.Unlock()
			m.c.Join.Inc()
			select {
			case <-c.done:
				return c.val, false, c.err
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
		}
	}
	c := &call[K, V]{key: k, done: make(chan struct{})}
	sh.flight = append(sh.flight, c)
	sh.mu.Unlock()

	// Deferred: a panicking compute still releases its joiners and the key.
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("memo: computation panicked: %v", r)
		}
		sh.mu.Lock()
		i := slices.Index(sh.flight, c)
		sh.flight = slices.Delete(sh.flight, i, i+1)
		if c.err == nil && keep {
			sh.done.Put(k, c.val)
		}
		sh.mu.Unlock()
		close(c.done)
		v, led, err = c.val, true, c.err
	}()
	c.val, c.err = compute()
	return
}
