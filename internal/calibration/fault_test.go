package calibration

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbvirt/internal/faults"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/vm"
)

// faultFreeConfig is testConfig with injection explicitly disabled, so
// baselines stay clean even when the suite itself runs under
// DBVIRT_FAULTS (the CI fault-injection job does exactly that).
func faultFreeConfig() Config {
	cfg := testConfig()
	cfg.Faults = faults.Disabled
	return cfg
}

// TestCalibrateRetriesTransientFaults runs one calibration under the CI
// fault mix (10% transient errors, 5% noise) and checks that transient
// failures were retried rather than surfaced, and that the trimmed-median
// aggregation keeps the fitted parameters within 5% of a fault-free run.
func TestCalibrateRetriesTransientFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	base, err := New(faultFreeConfig()).Calibrate(context.Background(), half())
	if err != nil {
		t.Fatalf("fault-free Calibrate: %v", err)
	}

	cfg := testConfig()
	cfg.Faults = faults.New(faults.Config{Seed: 7, Transient: 0.1, Noise: 0.05})
	cfg.retryBackoff = -1 // keep the test fast: retry without sleeping
	retries := mCalRetry.Value()
	p, err := New(cfg).Calibrate(context.Background(), half())
	if err != nil {
		t.Fatalf("Calibrate under faults: %v", err)
	}
	if mCalRetry.Value() == retries {
		t.Fatal("no transient retries recorded; the injector should have fired at 10% transient rate")
	}

	within := func(name string, got, want float64) {
		t.Helper()
		if want == 0 {
			if math.Abs(got) > 0.05 {
				t.Errorf("%s = %g, want ~0", name, got)
			}
			return
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 0.05 {
			t.Errorf("%s = %g, fault-free %g (rel diff %.3f > 0.05)", name, got, want, rel)
		}
	}
	within("CPUTupleCost", p.CPUTupleCost, base.CPUTupleCost)
	within("CPUOperatorCost", p.CPUOperatorCost, base.CPUOperatorCost)
	within("CPUIndexTupleCost", p.CPUIndexTupleCost, base.CPUIndexTupleCost)
	within("RandomPageCost", p.RandomPageCost, base.RandomPageCost)
	within("TimePerSeqPage", p.TimePerSeqPage, base.TimePerSeqPage)
}

// TestCalibratePanicRecovered checks that an injected panic in the
// measurement path is converted into a per-point error instead of
// killing the process.
func TestCalibratePanicRecovered(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	before := mCalPanic.Value()
	cfg := testConfig()
	cfg.Faults = faults.New(faults.Config{Seed: 3, Panic: 1})
	cfg.retryBackoff = -1
	_, err := New(cfg).Calibrate(context.Background(), half())
	if err == nil {
		t.Fatal("Calibrate succeeded; want an error from the injected panic")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error %q does not mention the recovered panic", err)
	}
	if mCalPanic.Value() == before {
		t.Fatal("calibration.panic.recovered counter did not move")
	}
}

// TestCalibrateGridCancellation cancels a grid calibration mid-sweep and
// requires a prompt context.Canceled return with every worker goroutine
// joined (run under -race this also exercises the shutdown paths).
func TestCalibrateGridCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	cfg := faultFreeConfig()
	cfg.Parallelism = 2
	c := New(cfg)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	cpus := []float64{0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7}
	go func() {
		_, err := c.CalibrateGrid(ctx, cpus, []float64{0.5, 1}, GridOptions{})
		done <- err
	}()

	// Cancel once at least one point has completed, so the sweep is
	// genuinely mid-flight (neither untouched nor finished).
	waitUntil := time.Now().Add(30 * time.Second)
	for c.Measurements() == 0 && time.Now().Before(waitUntil) {
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CalibrateGrid error = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("CalibrateGrid did not return after cancellation")
	}

	// All worker goroutines must wind down; poll briefly since the last
	// ones may still be between their final instructions and exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, g)
	}
}

// TestFillBadPointsAveragesNeighbors unit-tests the bad-point fill: a
// failed lattice point takes the component-wise average of its good
// orthogonal neighbors, and fills never read other fills.
func TestFillBadPointsAveragesNeighbors(t *testing.T) {
	mk := func(v float64) optimizer.Params {
		return optimizer.Params{
			SeqPageCost: 1, RandomPageCost: v, CPUTupleCost: v / 100,
			CPUIndexTupleCost: v / 200, CPUOperatorCost: v / 400,
			EffectiveCacheSizePages: 10, WorkMemBytes: 1000,
			TimePerSeqPage: v * 1e-4, Overlap: 0.5,
		}
	}
	g := newGrid([]float64{0.25, 0.5, 0.75}, []float64{0.5}, syntheticMemory)
	g.points[0] = mk(2)
	g.points[2] = mk(4)
	errs := []error{nil, errors.New("boom"), nil}
	g.fillBadPoints([]int{1}, errs)
	want := mk(3)
	if g.points[1] != want {
		t.Fatalf("filled point = %+v, want neighbor average %+v", g.points[1], want)
	}

	// Two adjacent bad points: each must fill from the single good point,
	// not from the other's fill (order independence).
	g2 := newGrid([]float64{0.25, 0.5, 0.75}, []float64{0.5}, syntheticMemory)
	g2.points[0] = mk(2)
	errs2 := []error{nil, errors.New("b1"), errors.New("b2")}
	g2.fillBadPoints([]int{1, 2}, errs2)
	if g2.points[1] != mk(2) || g2.points[2] != mk(2) {
		t.Fatalf("adjacent bad points filled to %+v / %+v, want both %+v (the only good point)",
			g2.points[1], g2.points[2], mk(2))
	}
}

// TestCalibrateGridTooManyBadPointsFails injects hard failures at rate 1
// (every lattice point fails) and requires the grid run to abort with a
// diagnostic instead of returning a grid fabricated entirely from fills.
func TestCalibrateGridTooManyBadPointsFails(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = faults.New(faults.Config{Seed: 1, Hard: 1})
	cfg.retryBackoff = -1
	cfg.Parallelism = 1
	_, err := New(cfg).CalibrateGrid(context.Background(), []float64{0.5}, []float64{0.5, 1}, GridOptions{})
	if err == nil {
		t.Fatal("CalibrateGrid succeeded with every point failing")
	}
	if !strings.Contains(err.Error(), "grid points failed") {
		t.Fatalf("error %q does not describe the failed points", err)
	}
	if !errors.Is(err, faults.ErrHard) {
		t.Fatalf("error %q does not wrap the first point's failure", err)
	}
}

// TestCalibrateGridFillsBadPoints injects hard failures at a rate (and
// deterministic seed) that fails exactly one of four lattice points; the
// sweep must complete, count the bad point, fill it with valid
// parameters from its neighbors, and leave a grid file holding the fill.
func TestCalibrateGridFillsBadPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	cfg := testConfig()
	// Seed 1 at this rate deterministically fails one point of this axis
	// (the injector is a pure function of seed and probe key).
	cfg.Faults = faults.New(faults.Config{Seed: 1, Hard: 0.012})
	cfg.retryBackoff = -1
	cfg.Parallelism = 1
	cpus := []float64{0.25, 0.5, 0.75, 1}
	before := mCalBadPoint.Value()
	path := filepath.Join(t.TempDir(), "grid.json")
	g, err := New(cfg).CalibrateGrid(context.Background(), cpus, []float64{0.5}, GridOptions{CheckpointPath: path})
	if err != nil {
		t.Fatalf("CalibrateGrid: %v", err)
	}
	if got := mCalBadPoint.Value() - before; got != 1 {
		t.Fatalf("bad-point counter moved by %d, want 1 (did the probe suite change? re-hunt the seed)", got)
	}
	for _, cpu := range cpus {
		p, ok := g.Lookup(vm.Shares{CPU: cpu, Memory: 0.5, IO: 0.5})
		if !ok {
			t.Fatalf("lattice point cpu=%g missing", cpu)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("lattice point cpu=%g invalid after fill: %v", cpu, err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := LoadGrid(f)
	if err != nil {
		t.Fatalf("LoadGrid of a filled sweep's file: %v", err)
	}
	var want, got bytes.Buffer
	if err := g.SaveJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := loaded.SaveJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("grid file differs from the filled grid:\nfile: %s\ngrid: %s", got.String(), want.String())
	}
}

// TestCalibrateGridCheckpointResume interrupts a checkpointed grid run
// mid-sweep, resumes it, and requires the resumed grid to be
// bit-identical to an uninterrupted run while re-measuring only the
// missing points.
func TestCalibrateGridCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	cfg := faultFreeConfig()
	cfg.Parallelism = 1
	cpus := []float64{0.25, 0.5, 0.75, 1}
	ios := []float64{0.5}

	ref, err := New(cfg).CalibrateGrid(context.Background(), cpus, ios, GridOptions{})
	if err != nil {
		t.Fatalf("reference CalibrateGrid: %v", err)
	}

	// Interrupted run: cancel as soon as the first checkpoint lands.
	path := filepath.Join(t.TempDir(), "grid.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for {
			if _, err := os.Stat(path); err == nil {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	_, err = New(cfg).CalibrateGrid(ctx, cpus, ios, GridOptions{CheckpointPath: path})
	cancel()
	<-watcherDone
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted CalibrateGrid: %v", err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("no checkpoint was written: %v", statErr)
	}
	// The interrupted run's file is not a servable grid: LoadGrid refuses
	// it and says how many points are missing.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var partial checkpointJSON
	if err := json.Unmarshal(raw, &partial); err != nil {
		t.Fatal(err)
	}
	missing := len(cpus) - len(partial.Points)
	if missing == 0 {
		t.Fatal("the interrupted run finished every point before the cancel landed")
	}
	if _, err := LoadGrid(bytes.NewReader(raw)); err == nil {
		t.Fatal("LoadGrid accepted an interrupted run's file")
	} else if want := fmt.Sprintf("%d missing", missing); !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadGrid error %q does not say %q", err, want)
	}

	// Resumed run: restores the checkpointed points, measures the rest.
	c := New(cfg)
	g, err := c.CalibrateGrid(context.Background(), cpus, ios, GridOptions{
		CheckpointPath: path,
		Resume:         true,
	})
	if err != nil {
		t.Fatalf("resumed CalibrateGrid: %v", err)
	}
	if got := c.Measurements(); got >= int64(len(cpus)) {
		t.Fatalf("resumed run measured %d points; want fewer than %d (the checkpoint held at least one)", got, len(cpus))
	}

	var wantJSON, gotJSON bytes.Buffer
	if err := ref.SaveJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := g.SaveJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Fatalf("resumed grid differs from uninterrupted run:\nresumed: %s\nreference: %s", gotJSON.String(), wantJSON.String())
	}

	// The resumed file is now the complete grid, byte for byte what the
	// uninterrupted sweep saves.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGrid(f)
	f.Close()
	if err != nil {
		t.Fatalf("LoadGrid of the resumed file: %v", err)
	}
	var loadedJSON bytes.Buffer
	if err := loaded.SaveJSON(&loadedJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), loadedJSON.Bytes()) {
		t.Fatalf("loaded grid differs from uninterrupted run:\nloaded: %s\nreference: %s", loadedJSON.String(), wantJSON.String())
	}

	// Resuming a complete file restores every point and measures none.
	measuredBefore, resumedBefore := mCalMeasure.Value(), mCalCkptResume.Value()
	if _, err := New(cfg).CalibrateGrid(context.Background(), cpus, ios, GridOptions{
		CheckpointPath: path,
		Resume:         true,
	}); err != nil {
		t.Fatalf("resuming a complete file: %v", err)
	}
	if d := mCalMeasure.Value() - measuredBefore; d != 0 {
		t.Fatalf("resuming a complete file measured %d points, want 0", d)
	}
	if d := mCalCkptResume.Value() - resumedBefore; d != int64(len(cpus)) {
		t.Fatalf("resuming a complete file restored %d points, want %d", d, len(cpus))
	}
}

// TestCheckpointRejectsTamperingAndConfigDrift corrupts a checkpoint and
// changes the calibration config, and requires resumption to fail loudly
// in both cases rather than silently mixing incompatible measurements.
func TestCheckpointRejectsTamperingAndConfigDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	cfg := faultFreeConfig()
	cfg.Parallelism = 1
	path := filepath.Join(t.TempDir(), "grid.ckpt.json")
	axis := []float64{0.5}
	if _, err := New(cfg).CalibrateGrid(context.Background(), axis, axis,
		GridOptions{CheckpointPath: path}); err != nil {
		t.Fatalf("CalibrateGrid: %v", err)
	}

	// Tamper with a stored parameter value; the checksum must catch it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	pt := doc["points"].([]any)[0].(map[string]any)["params"].(map[string]any)
	for k, v := range pt {
		if f, ok := v.(float64); ok && f != 0 {
			pt[k] = f * 2
			break
		}
	}
	tampered, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg).CalibrateGrid(context.Background(), axis, axis,
		GridOptions{CheckpointPath: path, Resume: true}); err == nil {
		t.Fatal("resume accepted a tampered checkpoint")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered checkpoint error %q does not mention the checksum", err)
	}

	// Restore the valid checkpoint, then resume under a different config;
	// the signature must catch it.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	drifted := cfg
	drifted.Seed++
	if _, err := New(drifted).CalibrateGrid(context.Background(), axis, axis,
		GridOptions{CheckpointPath: path, Resume: true}); err == nil {
		t.Fatal("resume accepted a checkpoint from a different calibration config")
	} else if !strings.Contains(err.Error(), "different calibration config") {
		t.Fatalf("config-drift error %q does not mention the config signature", err)
	}
}

// TestCalibrateGridFailsWhenGridFileUnwritable points the grid file into
// a directory that does not exist: every write fails, so the sweep must
// fail rather than report a grid it never saved.
func TestCalibrateGridFailsWhenGridFileUnwritable(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	cfg := faultFreeConfig()
	cfg.Parallelism = 1
	path := filepath.Join(t.TempDir(), "missing", "grid.json")
	axis := []float64{0.5}
	_, err := New(cfg).CalibrateGrid(context.Background(), axis, axis,
		GridOptions{CheckpointPath: path})
	if err == nil {
		t.Fatalf("sweep succeeded although %s was never written", path)
	}
	if !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "writing grid file") {
		t.Fatalf("error %q does not report the failed grid-file write", err)
	}
}
