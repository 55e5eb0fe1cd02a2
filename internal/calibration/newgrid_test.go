package calibration

import (
	"strings"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/vm"
)

func syntheticPoint(f float64) optimizer.Params {
	p := optimizer.DefaultParams()
	p.RandomPageCost = 1 + f
	p.TimePerSeqPage = 1e-4 * (1 + f)
	return p
}

func TestNewGridRoundTrip(t *testing.T) {
	cpus := []float64{0.25, 0.5, 1.0}
	ios := []float64{0.25, 1.0}
	n := len(cpus) * len(ios)
	points := make([]optimizer.Params, n)
	for i := range points {
		points[i] = syntheticPoint(float64(i))
	}
	g, err := NewGrid(cpus, ios, syntheticMemory, points)
	if err != nil {
		t.Fatal(err)
	}

	// Points are CPU-major, then I/O: zipping the lattice in that order
	// with the points must reproduce every fitted value, at any memory
	// share.
	i := 0
	for _, cpu := range cpus {
		for _, io := range ios {
			for _, mem := range []float64{0.1, 0.5, 1} {
				got, ok := g.Lookup(vm.Shares{CPU: cpu, Memory: mem, IO: io})
				if !ok {
					t.Fatalf("Lookup missed lattice point cpu=%g io=%g", cpu, io)
				}
				if want := syntheticMemory.params(points[i], mem); got != want {
					t.Errorf("point %d (cpu=%g mem=%g io=%g): Lookup = %+v, want %+v", i, cpu, mem, io, got, want)
				}
			}
			i++
		}
	}

	// Allocations sweeps memory over the CPU axis's values, CPU-major.
	allocs := g.Allocations()
	if len(allocs) != len(cpus)*n {
		t.Fatalf("Allocations returned %d entries, want %d", len(allocs), len(cpus)*n)
	}
	for i, sh := range allocs {
		if _, ok := g.Lookup(sh); !ok {
			t.Fatalf("Lookup missed allocation %v", sh)
		}
		if want := cpus[i/n]; sh.CPU != want {
			t.Fatalf("alloc %d CPU = %v, want %v (CPU-major order)", i, sh.CPU, want)
		}
	}

	// Interpolation between two lattice points stays between their values.
	mid := g.Interpolate(vm.Shares{CPU: 0.375, Memory: 0.5, IO: 0.25})
	lo, _ := g.Lookup(vm.Shares{CPU: 0.25, Memory: 0.5, IO: 0.25})
	hi, _ := g.Lookup(vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.25})
	if mid.RandomPageCost <= lo.RandomPageCost || mid.RandomPageCost >= hi.RandomPageCost {
		t.Errorf("interpolated RandomPageCost %v not between %v and %v",
			mid.RandomPageCost, lo.RandomPageCost, hi.RandomPageCost)
	}
}

// TestGridMemoryFieldsFollowTheEngine: every answer's effective cache size
// and work_mem are what engine.MemoryParams gives a session at the
// allocation's memory share, on or off the lattice. Before the grid lost
// its memory axis they were interpolated between memory lattice points
// and rounded, and clamped below the lowest one; the pinned values below
// are the two ways that moved an answer.
func TestGridMemoryFieldsFollowTheEngine(t *testing.T) {
	axis := []float64{0.25, 0.5, 0.75, 1}
	g, err := SyntheticGrid(axis, axis)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{BufferFrac: syntheticMemory.BufferFrac, WorkMemFrac: syntheticMemory.WorkMemFrac}
	for _, mem := range []float64{0.05, 0.1, 0.25, 0.3, 0.45, 0.5, 0.8, 1} {
		frames, workMem := engine.MemoryParams(syntheticMemory.MemBytes, mem, cfg)
		for _, sh := range []vm.Shares{{CPU: 0.5, Memory: mem, IO: 0.75}, {CPU: 0.6, Memory: mem, IO: 0.3}} {
			p := g.Interpolate(sh)
			if p.EffectiveCacheSizePages != int64(frames) || p.WorkMemBytes != workMem {
				t.Errorf("%v: ecs %d, work_mem %d; the engine sizes a session %d, %d",
					sh, p.EffectiveCacheSizePages, p.WorkMemBytes, frames, workMem)
			}
		}
	}
	for _, c := range []struct {
		mem          float64
		ecs, workMem int64
	}{
		{0.45, 7372, 7549747},      // 16384·0.45 = 7372.8 pages: truncated, was rounded to 7373
		{0.8, 13107, 13421772},     // 16 MiB·0.8 = 13421772.8 bytes: truncated, was rounded to 13421773
		{0.1, 1638, 1677721},       // below the lowest lattice point: exact, was clamped to 4096 and 4194304
		{0.25, 4096, 16 << 20 / 4}, // on the old lattice: as before
	} {
		p := g.Interpolate(vm.Shares{CPU: 0.6, Memory: c.mem, IO: 0.3})
		if p.EffectiveCacheSizePages != c.ecs || p.WorkMemBytes != c.workMem {
			t.Errorf("memory %g: ecs %d, work_mem %d; want %d, %d", c.mem, p.EffectiveCacheSizePages, p.WorkMemBytes, c.ecs, c.workMem)
		}
	}
}

func TestNewGridValidation(t *testing.T) {
	axis := []float64{0.5, 1.0}
	good := make([]optimizer.Params, 4)
	for i := range good {
		good[i] = syntheticPoint(float64(i))
	}
	cases := []struct {
		name string
		do   func() error
		want string
	}{
		{"empty axis", func() error {
			_, err := NewGrid(nil, axis, syntheticMemory, nil)
			return err
		}, "empty grid axis"},
		{"unsorted axis", func() error {
			_, err := NewGrid([]float64{1.0, 0.5}, axis, syntheticMemory, good)
			return err
		}, "must be sorted"},
		{"wrong point count", func() error {
			_, err := NewGrid(axis, axis, syntheticMemory, good[:3])
			return err
		}, "got 3"},
		{"invalid params", func() error {
			bad := append([]optimizer.Params(nil), good...)
			bad[3].SeqPageCost = 0
			_, err := NewGrid(axis, axis, syntheticMemory, bad)
			return err
		}, "SeqPageCost"},
		{"invalid memory", func() error {
			_, err := NewGrid(axis, axis, Memory{MemBytes: 1 << 20, BufferFrac: 1.5, WorkMemFrac: 0.1}, good)
			return err
		}, "grid memory"},
	}
	for _, tc := range cases {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
