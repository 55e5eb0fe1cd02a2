package calibration

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dbvirt/internal/vm"
)

// TestCalibrateConcurrentSingleflight fires many goroutines at the same
// two allocations and checks that each allocation is measured exactly
// once (concurrent callers for an in-flight key wait and share the
// result) and that all callers see identical parameters.
func TestCalibrateConcurrentSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	c := New(testConfig())
	points := []vm.Shares{
		{CPU: 0.5, Memory: 0.5, IO: 0.5},
		{CPU: 0.75, Memory: 0.5, IO: 0.5},
	}

	const goroutines = 16
	var wg sync.WaitGroup
	got := make([][]float64, goroutines) // CPUTupleCost observed per call
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				p, err := c.Calibrate(context.Background(), points[(g+i)%len(points)])
				if err != nil {
					t.Errorf("Calibrate: %v", err)
					return
				}
				got[g] = append(got[g], p.CPUTupleCost)
			}
		}(g)
	}
	wg.Wait()

	if n := c.Measurements(); n != int64(len(points)) {
		t.Fatalf("Measurements() = %d, want %d (one per unique allocation)", n, len(points))
	}
	// All observations of the same point must agree.
	want := make([]float64, len(points))
	for i, sh := range points {
		p, err := c.Calibrate(context.Background(), sh)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.CPUTupleCost
	}
	for g := range got {
		for i, v := range got[g] {
			if v != want[(g+i)%len(points)] {
				t.Fatalf("goroutine %d call %d: CPUTupleCost %v, want %v", g, i, v, want[(g+i)%len(points)])
			}
		}
	}
}

// TestCalibrateGridParallelMatchesSerial calibrates the same small
// lattice serially and with four workers and requires the resulting
// parameter grids to be exactly equal: per-worker calibrators build
// their databases from the same seeded config, so every lattice point is
// bit-for-bit reproducible no matter which worker measures it.
func TestCalibrateGridParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	cpuAxis := []float64{0.25, 0.75}
	ioAxis := []float64{0.5, 1.0}

	serialCfg := testConfig()
	serialCfg.Parallelism = 1
	serial, err := New(serialCfg).CalibrateGrid(context.Background(), cpuAxis, ioAxis, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}

	parCfg := testConfig()
	parCfg.Parallelism = 4
	par, err := New(parCfg).CalibrateGrid(context.Background(), cpuAxis, ioAxis, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, cpu := range cpuAxis {
		for _, io := range ioAxis {
			sh := vm.Shares{CPU: cpu, Memory: 0.5, IO: io}
			sp, ok := serial.Lookup(sh)
			if !ok {
				t.Fatalf("serial grid missing %v", sh)
			}
			pp, ok := par.Lookup(sh)
			if !ok {
				t.Fatalf("parallel grid missing %v", sh)
			}
			if sp != pp {
				t.Fatalf("lattice point %v differs:\n  serial:   %+v\n  parallel: %+v", sh, sp, pp)
			}
		}
	}
}

// TestCalibrateGridCountsEveryWorker checks that a parallel sweep's
// measurements and retries are all reported by the calibrator it ran on,
// not only those of the worker that reuses it.
func TestCalibrateGridCountsEveryWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	cfg := testConfig()
	cfg.Parallelism = 2
	c := New(cfg)
	axis := []float64{0.25, 0.75}
	if _, err := c.CalibrateGrid(context.Background(), axis, axis, GridOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := c.Measurements(); n != 4 {
		t.Errorf("Measurements() = %d after a 2x2 sweep, want 4", n)
	}
}

// BenchmarkCalibrateGrid measures a 5x5 lattice calibration end to end
// at worker counts 1 and 4. Each iteration uses a fresh calibrator so
// every lattice point is actually measured (no cache hits). On a
// multi-core host j=4 should be ~4x faster; results are identical.
func BenchmarkCalibrateGrid(b *testing.B) {
	axis := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			cfg := testConfig()
			cfg.Parallelism = j
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg).CalibrateGrid(context.Background(), axis, axis, GridOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
