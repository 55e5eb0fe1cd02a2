package server

import (
	"context"

	"dbvirt/internal/memo"
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

// coalesceMemo is the generation size of the completed-sweep memo.
const coalesceMemo = 256

// coalescer deduplicates requests by canonical request key on a memo.Memo.
// An identical request arriving while one is in flight joins it; with do,
// identical requests arriving after completion are served from a bounded
// memo of finished responses. Both are sound because a sweep's response is
// a pure, deterministic function of its key: the grid is immutable, the
// databases are immutable (the daemon exposes no DDL), and the cost model
// is deterministic — so a coalesced caller receives byte-for-byte the
// response it would have computed itself. Failed computations are not
// retained; a later identical request recomputes.
type coalescer[T any] struct {
	m *memo.Memo[string, T]
}

func newCoalescer[T any]() *coalescer[T] {
	return &coalescer[T]{memo.New[string, T](coalesceMemo, nil,
		memo.Counters{Hit: mCoalesceMemo, Join: mCoalesceInflight})}
}

// do returns the response for the keyed sweep, computing it at most once
// per key among concurrent and remembered callers; the leader runs under
// its own request context.
func (c *coalescer[T]) do(ctx context.Context, key string, compute func() (T, error)) (T, error) {
	return counted(c.m.Do(ctx, key, compute))
}

// inflight is do for concurrent callers only, which is what stateful
// endpoints (placement) need: replaying a completed body later could hand
// out state that subsequent events have already superseded.
func (c *coalescer[T]) inflight(ctx context.Context, key string, compute func() (T, error)) (T, error) {
	return counted(c.m.Flight(ctx, key, compute))
}

func counted[T any](v T, led bool, err error) (T, error) {
	if led {
		mCoalesceMisses.Inc()
	} else {
		mCoalesceHits.Inc()
	}
	return v, err
}
