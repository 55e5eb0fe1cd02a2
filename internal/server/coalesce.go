package server

import (
	"context"
	"sync"

	"dbvirt/internal/obs"
)

var (
	// mCoalesceHits counts what-if sweeps answered without recomputation —
	// joined onto an in-flight identical sweep or served from the bounded
	// memo of completed sweeps. The serving-scale acceptance signal: under
	// concurrent load this must be nonzero.
	mCoalesceHits     = obs.Global.Counter("server.coalesce.hits")
	mCoalesceInflight = obs.Global.Counter("server.coalesce.inflight_join")
	mCoalesceMemo     = obs.Global.Counter("server.coalesce.memo")
	mCoalesceMisses   = obs.Global.Counter("server.coalesce.miss")
)

// sweepEntry is one coalesced computation: done closes when val and err
// are final.
type sweepEntry[T any] struct {
	done chan struct{}
	val  T     // the marshaled 200 response, and what the caller keeps beside it
	err  error // non-nil if the computation failed
}

// coalescer deduplicates what-if sweeps by canonical request key. An
// identical request arriving while one is in flight joins it
// (singleflight); identical requests arriving after completion are served
// from a bounded memo of finished response bodies. Both are sound because
// a sweep's response is a pure, deterministic function of its key: the
// grid is immutable, the databases are immutable (the daemon exposes no
// DDL), and the cost model is deterministic — so a coalesced caller
// receives byte-for-byte the response it would have computed itself.
// Failed computations are not retained; a later identical request
// recomputes.
type coalescer[T any] struct {
	mu      sync.Mutex
	entries map[string]*sweepEntry[T]
	fifo    []string // completed-entry eviction order
	maxDone int
}

func newCoalescer[T any](maxDone int) *coalescer[T] {
	return &coalescer[T]{entries: make(map[string]*sweepEntry[T]), maxDone: maxDone}
}

// do returns the response for the keyed sweep, computing it via compute
// at most once per key among concurrent and remembered callers. A joiner
// whose ctx expires stops waiting (the computation continues for the
// others); the leader runs under its own request context.
func (c *coalescer[T]) do(ctx context.Context, key string, compute func() (T, error)) (T, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
			mCoalesceHits.Inc()
			mCoalesceMemo.Inc()
		default:
			mCoalesceHits.Inc()
			mCoalesceInflight.Inc()
			select {
			case <-e.done:
			case <-ctx.Done():
				var zero T
				return zero, ctx.Err()
			}
		}
		return e.val, e.err
	}
	e := &sweepEntry[T]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	mCoalesceMisses.Inc()

	e.val, e.err = compute()
	close(e.done)

	c.mu.Lock()
	if e.err != nil || c.maxDone < 0 {
		// Do not memoize failures (timeouts, transient model errors): the
		// next identical request deserves a fresh attempt. A negative
		// maxDone never memoizes at all — only concurrent identical
		// requests coalesce, which is what stateful endpoints (placement)
		// need: replaying a completed body later could hand out state that
		// subsequent events have already superseded.
		delete(c.entries, key)
	} else {
		c.fifo = append(c.fifo, key)
		for c.maxDone > 0 && len(c.fifo) > c.maxDone {
			old := c.fifo[0]
			c.fifo = c.fifo[1:]
			if cur, ok := c.entries[old]; ok {
				select {
				case <-cur.done:
					delete(c.entries, old) // completed: safe to forget
				default:
					// The key was evicted earlier and an identical sweep is
					// recomputing; leave the in-flight entry alone.
				}
			}
		}
	}
	c.mu.Unlock()
	return e.val, e.err
}
