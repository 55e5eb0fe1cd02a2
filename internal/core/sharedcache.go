package core

import (
	"context"

	"dbvirt/internal/memo"
	"dbvirt/internal/obs"
	"dbvirt/internal/vm"
)

// Shared-cache metrics: the cross-solve analogue of the core.cache.*
// counters. A shared hit means some earlier solve or request already paid
// for the cost-model call.
var (
	mSharedHit    = obs.Global.Counter("core.shared.hit")
	mSharedMiss   = obs.Global.Counter("core.shared.miss")
	mSharedInWait = obs.Global.Counter("core.shared.inflight_wait")
)

// SharedCostModel wraps a CostModel with a process-lifetime, bounded
// memo.Memo so identical (workload, shares) evaluations are computed once
// across every solve and request that shares the wrapper — the cross-solve
// extension of the per-solve cost cache, with that memo's contract:
// concurrent callers on one key share one model invocation, errors are not
// cached, a panic in the inner model becomes an error.
//
// Because the memo only ever returns values the inner model produced for
// the same key, a deterministic inner model stays deterministic through
// the wrapper: results are bit-identical whether a lookup hits, joins,
// computes, or computes again after an eviction. Solvers layer their own
// per-solve cache on top; their Result.Evaluations then counts invocations
// of the shared model, whose misses alone reach the inner model.
type SharedCostModel struct {
	costMemo[sharedKey]
	keyFn func(*WorkloadSpec) string // nil: the spec's cost identity, Base
}

// sharedGeneration bounds the memo: two generations of this many entries,
// about 10 MiB at most.
const sharedGeneration = 1 << 16

// sharedKey identifies one memo slot: the caller-scoped workload identity
// plus the quantized shares. Under the nil key spec is set and decides;
// wk is then the spec's name, for the lock shards only.
type sharedKey struct {
	wk   string
	spec *WorkloadSpec
	key  [3]int64
}

func (k sharedKey) hash() uint64 {
	return hashShares(hashString(fnvOffset, k.wk), k.key)
}

// NewSharedCostModel wraps inner with a shared memo. key maps a workload
// spec to its cache identity; workloads whose keys are equal MUST price
// identically under the inner model (same statements against the same
// database), or the cache will serve one workload's costs for another.
// A nil key falls back to the spec's Base, which is always sound and
// coalesces every caller of one interned spec (Intern) and its views.
func NewSharedCostModel(inner CostModel, key func(*WorkloadSpec) string) *SharedCostModel {
	return newSharedCostModel(inner, key, sharedGeneration)
}

// newSharedCostModel takes the capacity, so a test can force turnover.
func newSharedCostModel(inner CostModel, key func(*WorkloadSpec) string, capacity int) *SharedCostModel {
	return &SharedCostModel{keyFn: key, costMemo: costMemo[sharedKey]{inner, mSharedMiss,
		memo.New[sharedKey, float64](capacity, sharedKey.hash, memo.Counters{Join: mSharedInWait})}}
}

// Name implements CostModel; the wrapper is transparent in reports.
func (m *SharedCostModel) Name() string { return m.inner.Name() }

// Cost implements CostModel with at-most-once evaluation per distinct
// (workload key, quantized shares) pair the memo still holds.
func (m *SharedCostModel) Cost(ctx context.Context, w *WorkloadSpec, shares vm.Shares) (float64, error) {
	k := sharedKey{wk: w.Name, spec: w.Base(), key: quantizeShares(shares)}
	if m.keyFn != nil {
		k.wk, k.spec = m.keyFn(w), nil
	}
	v, hit, err := m.cost(ctx, k, w, shares)
	if hit {
		mSharedHit.Inc()
	}
	return v, err
}

// Len reports the number of cached entries (for tests and the server's
// stats surface).
func (m *SharedCostModel) Len() int { return m.memo.Len() }
