package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dbvirt/internal/obs"
)

func testHub(t *testing.T, cfg Config) *Hub {
	t.Helper()
	cfg.Registry = obs.NewRegistry()
	return NewHub(cfg)
}

// TestTopKZipfAccuracy checks the space-saving guarantees on a seeded
// Zipf stream against exact counts: every key with true frequency above
// N/K is retained, and each retained estimate brackets the true count
// (count-err <= true <= count).
func TestTopKZipfAccuracy(t *testing.T) {
	const (
		k        = 16
		distinct = 64
		n        = 50000
	)
	rng := rand.New(rand.NewSource(42))
	z := rand.NewZipf(rng, 1.3, 1, distinct-1)
	exact := make(map[string]int64)
	tk := NewTopK(k)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("q%d", z.Uint64())
		exact[key]++
		tk.Update(key, 1)
	}
	if tk.Total() != n {
		t.Fatalf("total %d, want %d", tk.Total(), n)
	}
	retained := make(map[string]TopKEntry)
	for _, e := range tk.Snapshot() {
		retained[e.Key] = e
	}
	if len(retained) > k {
		t.Fatalf("sketch holds %d keys, cap %d", len(retained), k)
	}
	for key, true_ := range exact {
		if true_ > n/k {
			e, ok := retained[key]
			if !ok {
				t.Fatalf("heavy hitter %s (count %d > N/K=%d) evicted", key, true_, n/k)
			}
			if e.Count < true_ || e.Count-e.Err > true_ {
				t.Fatalf("%s: estimate [%d-%d, %d] does not bracket true %d",
					key, e.Count, e.Err, e.Count, true_)
			}
		}
	}
	// The top handful by exact count must surface as the sketch's head.
	top := tk.Snapshot()
	for i := 0; i < 4; i++ {
		if exact[top[i].Key] <= n/(4*k) {
			t.Fatalf("sketch head %q has tiny true count %d", top[i].Key, exact[top[i].Key])
		}
	}
}

// TestDriftScoreDeterministic replays the same update sequence through
// two independent hubs and requires bit-identical drift scores — run
// under -race in CI, so the locking is exercised too.
func TestDriftScoreDeterministic(t *testing.T) {
	run := func() (scores []float64) {
		h := testHub(t, Config{Window: 16, TopK: 8})
		ten := h.Tenant("w1")
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 16*8; i++ {
			ten.ObserveQuery(fmt.Sprintf("SELECT %d", rng.Intn(6)))
			scores = append(scores, ten.DriftScore())
		}
		return scores
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("drift scores differ across identical replays")
	}
}

// TestDistanceBitDeterministic: the distance between two 20-key sketches
// of inexact frequencies is one bit pattern however often it is taken and
// in either argument order. Placement clustering and drift detection both
// compare it against a threshold, so low bits that followed map order
// could flip a decision between runs.
func TestDistanceBitDeterministic(t *testing.T) {
	a, b := NewTopK(20), NewTopK(20)
	for i := 0; i < 20; i++ {
		a.Update(fmt.Sprintf("SELECT c%d FROM t", i), int64(1+i%7))
		b.Update(fmt.Sprintf("SELECT c%d FROM t", i+10), int64(1+(3*i)%11))
	}
	want := math.Float64bits(Distance(a, b))
	if back := math.Float64bits(Distance(b, a)); back != want {
		t.Fatalf("Distance(b, a) = %x, Distance(a, b) = %x", back, want)
	}
	for i := 0; i < 2000; i++ {
		if got := math.Float64bits(Distance(a, b)); got != want {
			t.Fatalf("call %d: Distance = %v (%x), first call %v (%x)",
				i, math.Float64frombits(got), got, math.Float64frombits(want), want)
		}
	}
}

// TestTenantConcurrentUpdates hammers one tenant from many goroutines so
// the race detector sees the locking; the update count must be exact.
func TestTenantConcurrentUpdates(t *testing.T) {
	h := testHub(t, Config{Window: 32})
	ten := h.Tenant("w1")
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ten.ObserveQuery(fmt.Sprintf("SELECT %d", (g+i)%5))
				ten.ObserveResidual(1.0, 1.1)
			}
		}(g)
	}
	wg.Wait()
	snap := ten.Snapshot()
	if snap.Updates != goroutines*per {
		t.Fatalf("updates %d, want %d", snap.Updates, goroutines*per)
	}
	if snap.ResidualCount != goroutines*per {
		t.Fatalf("residuals %d, want %d", snap.ResidualCount, goroutines*per)
	}
}

// TestWorkloadShiftCrossesThreshold is the synthetic Figure-5 trigger: a
// tenant runs a stable query mix for several windows (drift must stay
// under threshold), then the mix is swapped for a disjoint one — the
// smoothed drift gauge must cross the threshold within two windows.
func TestWorkloadShiftCrossesThreshold(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHub(Config{Window: 32, Registry: reg})
	ten := h.Tenant("w1")
	mixA := []string{"SELECT a FROM r", "SELECT b FROM s", "SELECT c FROM u"}
	mixB := []string{"SELECT x FROM big1", "SELECT y FROM big2", "SELECT z FROM big3"}
	feed := func(mix []string, windows int) {
		for i := 0; i < 32*windows; i++ {
			ten.ObserveQuery(mix[i%len(mix)])
		}
	}
	feed(mixA, 4)
	if s := ten.DriftScore(); s >= 0.1 {
		t.Fatalf("stable mix drifted: score %g", s)
	}
	if ten.Alarmed() {
		t.Fatal("alarmed on a stable mix")
	}
	feed(mixB, 2)
	if s := ten.DriftScore(); s <= 0.25 {
		t.Fatalf("workload shift did not cross threshold: score %g", s)
	}
	if !ten.Alarmed() {
		t.Fatal("not alarmed after a full workload shift")
	}
	if g := reg.Gauge("telemetry.drift.score.w1").Value(); g <= 0.25 {
		t.Fatalf("drift gauge %g did not cross threshold", g)
	}
	if g := reg.Gauge("telemetry.drift.max").Value(); g <= 0.25 {
		t.Fatalf("fleet drift.max gauge %g did not cross threshold", g)
	}
	if c := reg.Counter("telemetry.drift.alarms").Value(); c == 0 {
		t.Fatal("alarm counter never incremented")
	}
	// Sustained new mix: the raw distance returns to zero and the EWMA
	// decays back under the threshold — the detector recovers instead of
	// latching.
	feed(mixB, 6)
	if ten.Alarmed() {
		t.Fatalf("alarm latched after the new mix stabilized: score %g", ten.DriftScore())
	}
}

// TestResidualTracker checks the calibration-drift EWMAs and that
// signal-free pairs are ignored.
func TestResidualTracker(t *testing.T) {
	tr := NewResidualTracker(0.5)
	tr.Observe(1.0, 2.0) // model optimistic 2x
	if got := tr.RelErr(); got != 0.5 {
		t.Fatalf("relerr %g, want 0.5", got)
	}
	if tr.Bias() <= 0 {
		t.Fatalf("bias %g, want positive (optimistic)", tr.Bias())
	}
	tr.Observe(0, 1)  // ignored
	tr.Observe(1, 0)  // ignored
	tr.Observe(-1, 1) // ignored
	if tr.Samples() != 1 {
		t.Fatalf("samples %d, want 1", tr.Samples())
	}
	for i := 0; i < 20; i++ {
		tr.Observe(1.0, 1.0) // perfectly calibrated
	}
	if tr.RelErr() > 0.01 || tr.Bias() > 0.01 {
		t.Fatalf("EWMAs did not converge to calibrated: relerr %g bias %g", tr.RelErr(), tr.Bias())
	}
}

// TestHubTenantCap: tenant churn beyond maxTenants collapses into the
// shared "other" tenant instead of growing without bound.
func TestHubTenantCap(t *testing.T) {
	h := testHub(t, Config{})
	for i := 0; i < maxTenants+6; i++ {
		h.Tenant(fmt.Sprintf("t%d", i)).ObserveQuery("SELECT 1")
	}
	snaps := h.Snapshot()
	if len(snaps) != maxTenants+1 { // t0..t255 + other
		t.Fatalf("tenant table grew to %d, want %d", len(snaps), maxTenants+1)
	}
	var other *TenantSnapshot
	for i := range snaps {
		if snaps[i].Name == "other" {
			other = &snaps[i]
		}
	}
	if other == nil || other.Updates != 6 {
		t.Fatalf("overflow tenants not absorbed: %+v", snaps)
	}
}

// TestNilSafety: the nil hub and nil tenant are valid no-ops, like the
// rest of the obs layer.
func TestNilSafety(t *testing.T) {
	var h *Hub
	ten := h.Tenant("x")
	ten.ObserveQuery("SELECT 1")
	ten.ObserveResidual(1, 2)
	if ten.DriftScore() != 0 || ten.Alarmed() {
		t.Fatal("nil tenant not a clean no-op")
	}
	if h.Snapshot() != nil {
		t.Fatal("nil hub snapshot not nil")
	}
}
