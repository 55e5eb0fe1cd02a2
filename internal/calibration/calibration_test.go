package calibration

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"dbvirt/internal/optimizer"
	"dbvirt/internal/vm"
)

// testConfig shrinks the synthetic database so tests stay fast while
// preserving the regimes (narrow table cached, big table uncached).
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Machine.MemBytes = 8 << 20 // pool@50% mem = 384 pages
	cfg.NarrowRows = 4000          // ~30 pages
	cfg.BigRows = 20000            // ~1250 pages > pool even at full memory
	cfg.RandProbeRows = 100
	return cfg
}

func half() vm.Shares { return vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5} }

func TestCalibrateProducesSaneParams(t *testing.T) {
	c := New(testConfig())
	p, err := c.Calibrate(context.Background(), half())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("calibrated params invalid: %v (%+v)", err, p)
	}
	if p.TimePerSeqPage <= 0 {
		t.Error("TimePerSeqPage must be positive")
	}
	// With the default machine at 50% I/O share one sequential page takes
	// 1/(2560*0.5) ≈ 0.78ms (plus hypervisor CPU).
	wantSeq := 1 / (testConfig().Machine.SeqPagesPerSec * 0.5)
	if p.TimePerSeqPage < wantSeq*0.8 || p.TimePerSeqPage > wantSeq*2 {
		t.Errorf("TimePerSeqPage = %g, want ~%g", p.TimePerSeqPage, wantSeq)
	}
	// Random reads are slower than sequential ones.
	if p.RandomPageCost < 1 {
		t.Errorf("RandomPageCost = %g, want >= 1", p.RandomPageCost)
	}
	// CPU cost ordering: tuple > index tuple > operator is the engine's
	// built-in cost structure (300 > 150 > 100 ops).
	if p.CPUTupleCost <= p.CPUIndexTupleCost || p.CPUIndexTupleCost <= p.CPUOperatorCost {
		t.Errorf("CPU cost ordering violated: %+v", p)
	}
}

func TestCalibrationRecoversEngineConstants(t *testing.T) {
	// At full allocation with no scheduler overhead the true parameter
	// values are known in closed form: tTup = 300 ops / 1e9 ops/s = 0.3µs,
	// tSeq = 1/2560 s + hypervisor CPU. Calibration should land near them.
	cfg := testConfig()
	cfg.Machine.SchedOverhead = 0
	cfg.Machine.HypervisorIOOps = 0
	c := New(cfg)
	p, err := c.Calibrate(context.Background(), vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	tSeqTrue := 1 / cfg.Machine.SeqPagesPerSec
	if math.Abs(p.TimePerSeqPage-tSeqTrue)/tSeqTrue > 0.15 {
		t.Errorf("tSeq = %g, want ~%g", p.TimePerSeqPage, tSeqTrue)
	}
	tTupTrue := 300 / cfg.Machine.CPUOpsPerSec
	gotTTup := p.CPUTupleCost * p.TimePerSeqPage
	if math.Abs(gotTTup-tTupTrue)/tTupTrue > 0.25 {
		t.Errorf("tTup = %g, want ~%g", gotTTup, tTupTrue)
	}
	tOpTrue := 100 / cfg.Machine.CPUOpsPerSec
	gotTOp := p.CPUOperatorCost * p.TimePerSeqPage
	if math.Abs(gotTOp-tOpTrue)/tOpTrue > 0.25 {
		t.Errorf("tOp = %g, want ~%g", gotTOp, tOpTrue)
	}
}

func TestCPUTupleCostRisesAsCPUShareFalls(t *testing.T) {
	// The paper's Figure 3: cpu_tuple_cost is sensitive to the CPU share.
	c := New(testConfig())
	p25, err := c.Calibrate(context.Background(), vm.Shares{CPU: 0.25, Memory: 0.5, IO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p75, err := c.Calibrate(context.Background(), vm.Shares{CPU: 0.75, Memory: 0.5, IO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p25.CPUTupleCost <= p75.CPUTupleCost {
		t.Errorf("cpu_tuple_cost should fall as CPU share rises: 25%%=%g 75%%=%g",
			p25.CPUTupleCost, p75.CPUTupleCost)
	}
	// With SchedOverhead the ratio should exceed the linear 3x.
	ratio := p25.CPUTupleCost / p75.CPUTupleCost
	if ratio < 2 {
		t.Errorf("cpu_tuple_cost ratio 25%%/75%% = %g, want > 2", ratio)
	}
}

func TestTimePerSeqPageScalesWithIOShare(t *testing.T) {
	c := New(testConfig())
	pLow, err := c.Calibrate(context.Background(), vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	pHigh, err := c.Calibrate(context.Background(), vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	ratio := pLow.TimePerSeqPage / pHigh.TimePerSeqPage
	if ratio < 2 || ratio > 4 {
		t.Errorf("tSeq ratio io25/io75 = %g, want ~3", ratio)
	}
}

func TestCalibrateCaches(t *testing.T) {
	c := New(testConfig())
	p1, err := c.Calibrate(context.Background(), half())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Calibrate(context.Background(), half())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cached calibration should be identical")
	}
}

func TestCalibrateRejectsInvalidShares(t *testing.T) {
	c := New(testConfig())
	if _, err := c.Calibrate(context.Background(), vm.Shares{CPU: 0, Memory: 0.5, IO: 0.5}); err == nil {
		t.Error("invalid shares should fail")
	}
}

func TestEffectiveCacheTracksMemoryShare(t *testing.T) {
	c := New(testConfig())
	pSmall, err := c.Calibrate(context.Background(), vm.Shares{CPU: 0.5, Memory: 0.25, IO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pBig, err := c.Calibrate(context.Background(), vm.Shares{CPU: 0.5, Memory: 0.75, IO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pBig.EffectiveCacheSizePages <= pSmall.EffectiveCacheSizePages {
		t.Error("effective cache should grow with memory share")
	}
	if pBig.WorkMemBytes <= pSmall.WorkMemBytes {
		t.Error("work_mem should grow with memory share")
	}
}

func TestGridCalibrationAndLookup(t *testing.T) {
	c := New(testConfig())
	axis := []float64{0.25, 0.75}
	g, err := c.CalibrateGrid(context.Background(), axis, []float64{0.5}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := g.Lookup(vm.Shares{CPU: 0.25, Memory: 0.5, IO: 0.5})
	if !ok {
		t.Fatal("lattice point should be found")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Lookup(vm.Shares{CPU: 0.6, Memory: 0.5, IO: 0.5}); ok {
		t.Error("off-lattice lookup should miss")
	}
}

func TestGridInterpolation(t *testing.T) {
	c := New(testConfig())
	g, err := c.CalibrateGrid(context.Background(), []float64{0.25, 0.75}, []float64{0.5}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := g.Lookup(vm.Shares{CPU: 0.25, Memory: 0.5, IO: 0.5})
	hi, _ := g.Lookup(vm.Shares{CPU: 0.75, Memory: 0.5, IO: 0.5})
	mid := g.Interpolate(vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
	// Interpolated cpu_tuple_cost lies between the endpoints.
	if mid.CPUTupleCost < hi.CPUTupleCost || mid.CPUTupleCost > lo.CPUTupleCost {
		t.Errorf("interpolated cpu_tuple_cost %g outside [%g, %g]",
			mid.CPUTupleCost, hi.CPUTupleCost, lo.CPUTupleCost)
	}
	// Exactly at an endpoint it matches the lattice.
	end := g.Interpolate(vm.Shares{CPU: 0.25, Memory: 0.5, IO: 0.5})
	if math.Abs(end.CPUTupleCost-lo.CPUTupleCost) > 1e-12 {
		t.Error("endpoint interpolation should match lattice point")
	}
	// Clamping outside the lattice.
	out := g.Interpolate(vm.Shares{CPU: 0.1, Memory: 0.5, IO: 0.5})
	if math.Abs(out.CPUTupleCost-lo.CPUTupleCost) > 1e-12 {
		t.Error("out-of-range interpolation should clamp")
	}
}

func TestGridValidation(t *testing.T) {
	c := New(testConfig())
	if _, err := c.CalibrateGrid(context.Background(), nil, []float64{0.5}, []float64{0.5}); err == nil {
		t.Error("empty axis should fail")
	}
	if _, err := c.CalibrateGrid(context.Background(), []float64{0.75, 0.25}, []float64{0.5}, []float64{0.5}); err == nil {
		t.Error("unsorted axis should fail")
	}
}

func TestFinerGridReducesInterpolationError(t *testing.T) {
	if testing.Short() {
		t.Skip("grid accuracy check is slow")
	}
	// cpu_tuple_cost(share) ~ 1/share is convex, so a coarse linear
	// interpolant overestimates; refining the lattice must shrink the
	// error. (This is the paper's §7 trade-off between calibration cost
	// and model accuracy; the ablation bench quantifies it.)
	c := New(testConfig())
	target := vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5}
	direct, err := c.Calibrate(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(axis []float64) float64 {
		g, err := c.CalibrateGrid(context.Background(), axis, []float64{0.5}, []float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		interp := g.Interpolate(target)
		return math.Abs(interp.CPUTupleCost-direct.CPUTupleCost) / direct.CPUTupleCost
	}
	coarse := relErr([]float64{0.25, 0.75})
	fine := relErr([]float64{0.25, 0.4, 0.6, 0.75})
	if fine >= coarse {
		t.Errorf("finer grid should reduce error: coarse=%.0f%% fine=%.0f%%", coarse*100, fine*100)
	}
	if fine > 0.25 {
		t.Errorf("fine-grid error = %.0f%%, want < 25%%", fine*100)
	}
}

// TestGridReleasesDatabaseAndRebuildsOnDemand: a grid sweep caches every
// lattice point and leaves no calibration database behind. A lattice point
// is then a cache hit; an off-lattice point rebuilds the database and
// measures bit for bit what a fresh calibrator does — also when it runs
// while the sweep releases the database.
func TestGridReleasesDatabaseAndRebuildsOnDemand(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig()
	cfg.Parallelism = 2
	cpus, fixed := []float64{0.25, 0.75}, []float64{0.5}
	off := half()
	want, err := New(cfg).Calibrate(ctx, off)
	if err != nil {
		t.Fatal(err)
	}

	c := New(cfg)
	holds := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.data != nil
	}
	if _, err := c.CalibrateGrid(ctx, cpus, fixed, fixed); err != nil {
		t.Fatal(err)
	}
	if holds() {
		t.Fatal("the calibrator still holds its database after the sweep")
	}
	before := c.Measurements()
	if _, err := c.Calibrate(ctx, vm.Shares{CPU: 0.75, Memory: 0.5, IO: 0.5}); err != nil {
		t.Fatal(err)
	}
	if c.Measurements() != before || holds() {
		t.Fatalf("a lattice point measured (%d -> %d) or rebuilt the database (%v)", before, c.Measurements(), holds())
	}
	got, err := c.Calibrate(ctx, off)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || c.Measurements() != before+1 {
		t.Fatalf("off-lattice point after the release: %+v (measurements %d -> %d), want %+v from a fresh calibrator",
			got, before, c.Measurements(), want)
	}

	// The same off-lattice point, measured while a second calibrator's
	// sweep runs and releases its database.
	c2 := New(cfg)
	var wg sync.WaitGroup
	var during optimizer.Params
	var duringErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		during, duringErr = c2.Calibrate(ctx, off)
	}()
	if _, err := c2.CalibrateGrid(ctx, cpus, fixed, fixed); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if duringErr != nil || during != want {
		t.Fatalf("off-lattice point during the sweep: %+v, %v; want %+v", during, duringErr, want)
	}
}

func TestGridSaveLoadRoundTrip(t *testing.T) {
	c := New(testConfig())
	g, err := c.CalibrateGrid(context.Background(), []float64{0.25, 0.75}, []float64{0.5}, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGrid(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Lattice lookups and interpolations agree exactly.
	for _, cpu := range []float64{0.25, 0.75} {
		sh := vm.Shares{CPU: cpu, Memory: 0.5, IO: 0.25}
		a, ok1 := g.Lookup(sh)
		b, ok2 := loaded.Lookup(sh)
		if !ok1 || !ok2 || a != b {
			t.Errorf("lookup mismatch at %v: %v vs %v", sh, a, b)
		}
	}
	mid := vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5}
	if g.Interpolate(mid) != loaded.Interpolate(mid) {
		t.Error("interpolation mismatch after round trip")
	}
}

func TestLoadGridRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"version": 2, "cpus": [0.5], "mems": [0.5], "ios": [0.5], "points": []}`,
		`{"version": 1, "cpus": [], "mems": [0.5], "ios": [0.5], "points": []}`,
		// Missing lattice points.
		`{"version": 1, "cpus": [0.25, 0.75], "mems": [0.5], "ios": [0.5], "points": []}`,
		// Out-of-range index.
		`{"version": 1, "cpus": [0.5], "mems": [0.5], "ios": [0.5],
		  "points": [{"cpu_idx": 3, "mem_idx": 0, "io_idx": 0,
		    "params": {"SeqPageCost": 1, "RandomPageCost": 4, "WorkMemBytes": 1024}}]}`,
	}
	for i, c := range cases {
		if _, err := LoadGrid(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
