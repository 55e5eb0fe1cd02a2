package calibration

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dbvirt/internal/obs"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/vm"
)

// Grid holds calibrated parameters on a lattice of resource allocations
// and interpolates between them. Grid calibration plus interpolation is
// the paper's proposed way to keep the number of calibration experiments
// manageable (Section 7): calibrate a coarse lattice offline, answer any
// allocation online. Points are stored in a dense slice (CPU-major,
// memory, then I/O) and axes are searched with binary search, so lookups
// are O(log axis) with no per-point map overhead. A populated Grid is
// immutable and safe for concurrent use.
type Grid struct {
	cpus, mems, ios []float64
	points          []optimizer.Params // dense; see Grid.index
}

// index flattens lattice coordinates into the dense points slice.
func (g *Grid) index(ic, im, ii int) int {
	return (ic*len(g.mems)+im)*len(g.ios) + ii
}

// coords is the inverse of index.
func (g *Grid) coords(idx int) (ic, im, ii int) {
	ii = idx % len(g.ios)
	im = (idx / len(g.ios)) % len(g.mems)
	ic = idx / (len(g.ios) * len(g.mems))
	return
}

// newGrid allocates an empty grid over copies of the given axes.
func newGrid(cpus, mems, ios []float64) *Grid {
	g := &Grid{
		cpus: append([]float64(nil), cpus...),
		mems: append([]float64(nil), mems...),
		ios:  append([]float64(nil), ios...),
	}
	g.points = make([]optimizer.Params, len(g.cpus)*len(g.mems)*len(g.ios))
	return g
}

// latticeShares returns the allocation at lattice coordinates (ic, im, ii).
func (g *Grid) latticeShares(ic, im, ii int) vm.Shares {
	return vm.Shares{CPU: g.cpus[ic], Memory: g.mems[im], IO: g.ios[ii]}
}

// checkAxes requires every lattice axis to be non-empty and sorted
// ascending, which Lookup and Interpolate search by.
func checkAxes(cpus, mems, ios []float64) error {
	for _, axis := range [][]float64{cpus, mems, ios} {
		if len(axis) == 0 {
			return fmt.Errorf("calibration: empty grid axis")
		}
		if !sort.Float64sAreSorted(axis) {
			return fmt.Errorf("calibration: grid axis must be sorted")
		}
	}
	return nil
}

// NewGrid builds a grid directly from axes and pre-computed parameter
// points, without running calibration experiments. Points are given in
// the grid's dense order — CPU-major, then memory, then I/O, matching
// Allocations — and their length must be the product of the axis
// lengths. Axes must be non-empty and sorted ascending, and every
// parameter vector must validate. Synthetic grids built this way drive
// deterministic what-if benchmarks and tests that must not depend on
// calibration measurements.
func NewGrid(cpus, mems, ios []float64, points []optimizer.Params) (*Grid, error) {
	if err := checkAxes(cpus, mems, ios); err != nil {
		return nil, err
	}
	g := newGrid(cpus, mems, ios)
	if len(points) != len(g.points) {
		return nil, fmt.Errorf("calibration: grid wants %d points (%d cpu x %d mem x %d io), got %d",
			len(g.points), len(cpus), len(mems), len(ios), len(points))
	}
	for idx, p := range points {
		if err := p.Validate(); err != nil {
			ic, im, ii := g.coords(idx)
			sh := g.latticeShares(ic, im, ii)
			return nil, fmt.Errorf("calibration: grid point (%g,%g,%g): %w", sh.CPU, sh.Memory, sh.IO, err)
		}
	}
	copy(g.points, points)
	return g, nil
}

// SyntheticGrid builds a deterministic parameter lattice over the given
// share axes without running any calibration experiments. The parameter
// surface is a plausible stand-in for a calibrated grid: CPU costs
// (relative to one sequential page fetch) grow as the CPU share shrinks
// or the I/O share grows, the cache assumption and work_mem scale with
// the memory share, and the seconds-per-page conversion scales with the
// inverse I/O share. The spread is wide enough to flip access paths and
// join methods across the lattice, which is exactly what the what-if
// re-costing benchmarks and differential tests need — reproducibly, and
// with no dependence on calibration measurements.
func SyntheticGrid(cpus, mems, ios []float64) (*Grid, error) {
	points := make([]optimizer.Params, 0, len(cpus)*len(mems)*len(ios))
	for _, c := range cpus {
		for _, m := range mems {
			for _, io := range ios {
				points = append(points, syntheticParams(c, m, io))
			}
		}
	}
	return NewGrid(cpus, mems, ios, points)
}

// syntheticParams maps one allocation to a parameter vector. Each field
// is a smooth monotone function of the shares, so trilinear
// interpolation between lattice points stays well-behaved.
func syntheticParams(cpu, mem, io float64) optimizer.Params {
	p := optimizer.DefaultParams()
	// Faster I/O makes a page fetch cheap in wall time, so CPU work costs
	// more pages-worth; a bigger CPU share pushes the other way.
	rel := io / cpu
	p.CPUTupleCost = 0.01 * rel
	p.CPUIndexTupleCost = 0.005 * rel
	p.CPUOperatorCost = 0.0025 * rel
	// Seeks amortize better at higher I/O shares (deeper queues).
	p.RandomPageCost = 1 + 3/io
	p.EffectiveCacheSizePages = int64(16384*mem + 0.5)
	p.WorkMemBytes = int64(float64(16<<20)*mem + 0.5)
	p.TimePerSeqPage = 1e-4 / io
	p.Overlap = 0.3
	return p
}

// Allocations returns every lattice point's allocation in the grid's
// dense order (CPU-major, then memory, then I/O) — the order NewGrid
// expects its points in. The slice is freshly allocated.
func (g *Grid) Allocations() []vm.Shares {
	out := make([]vm.Shares, 0, len(g.points))
	for ic := range g.cpus {
		for im := range g.mems {
			for ii := range g.ios {
				out = append(out, g.latticeShares(ic, im, ii))
			}
		}
	}
	return out
}

// GridOptions controls persistence of a grid calibration run; the zero
// value persists nothing.
type GridOptions struct {
	// CheckpointPath, when non-empty, names the grid file (see LoadGrid)
	// the run writes atomically after every completed lattice point, so
	// a crashed or cancelled run can be resumed without repeating
	// finished measurements. A run succeeds only if it leaves the
	// complete grid in this file.
	CheckpointPath string
	// Resume loads CheckpointPath (if it exists) before measuring and
	// skips every lattice point it restores. The file must match this
	// run's axes and calibration config, or resumption fails rather than
	// silently mixing incompatible measurements.
	Resume bool
}

// maxBadPointFrac is the largest fraction of lattice points allowed to
// fail measurement before a grid run is abandoned; failed points under
// the limit are filled from their neighbors.
const maxBadPointFrac = 0.5

// CalibrateGridOpts measures every lattice point (the cross product of
// the three axes; axis values must be valid shares) and returns the grid,
// with checkpoint/resume per opts and bad-point recovery.
//
// Lattice points are distributed over a bounded worker pool sized by
// Config.Parallelism. Every worker owns a private Calibrator — its own
// synthetic database, machines, and VMs — so no simulated clock is ever
// shared between goroutines; because the calibration database is built
// deterministically from the seeded Config and each measurement runs on a
// fresh machine, every worker measures bit-for-bit the same parameters a
// serial run would, and workers write into pre-indexed lattice slots, so
// the resulting grid is byte-identical regardless of scheduling. All
// measured points are also handed back to this calibrator's cache.
//
// Failure handling distinguishes two classes. A fatal error — the context
// being cancelled, or a worker failing to build its calibration database —
// cancels all workers promptly (dispatch stops and in-flight measurements
// abort at the next probe boundary) and fails the run. A per-point
// measurement error is degradable: the point is marked bad, the run
// continues, and bad points are afterwards filled with the average of
// their good lattice neighbors — unless more than maxBadPointFrac of the
// lattice failed, which fails the run with the first bad point's
// error.
func (c *Calibrator) CalibrateGridOpts(ctx context.Context, cpus, mems, ios []float64, opts GridOptions) (*Grid, error) {
	if c.envErr != nil {
		return nil, c.envErr
	}
	if err := checkAxes(cpus, mems, ios); err != nil {
		return nil, err
	}
	g := newGrid(cpus, mems, ios)
	n := len(g.points)
	completed := make([]bool, n)
	sig := c.cfg.signature(g.cpus, g.mems, g.ios)
	resumed := 0
	if opts.Resume && opts.CheckpointPath != "" {
		var err error
		resumed, err = loadCheckpoint(opts.CheckpointPath, sig, g, completed)
		if err != nil {
			return nil, fmt.Errorf("calibration: resuming from %s: %w", opts.CheckpointPath, err)
		}
		if resumed > 0 {
			mCalCkptResume.Add(int64(resumed))
			obs.Info("grid calibration resumed",
				"checkpoint", opts.CheckpointPath, "restored_points", resumed, "total_points", n)
		}
	}
	// No worker (and so no calibration database) for restored points.
	workers := min(c.cfg.workers(), n-resumed)
	sp := obs.StartSpan("calibrate.grid")
	sp.SetArg("points", n)
	sp.SetArg("workers", workers)
	sp.SetArg("resumed", resumed)
	defer sp.End()

	// Per-worker calibrators: worker 0 reuses this calibrator (and its
	// warm cache); extra workers get fresh instances built from the same
	// deterministic config.
	cals := make([]*Calibrator, workers)
	for w := range cals {
		if w == 0 {
			cals[w] = c
		} else {
			cals[w] = New(c.cfg)
		}
	}

	// Fatal errors (context cancellation, database build failures) cancel
	// the derived context so every worker stops dispatching immediately
	// and in-flight measurements abort at their next probe boundary.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var fatalMu sync.Mutex
	var fatal error
	setFatal := func(err error) {
		fatalMu.Lock()
		if fatal == nil {
			fatal = err
		}
		fatalMu.Unlock()
		cancel()
	}

	// ckptMu orders completed[] updates and checkpoint writes; holding it
	// while writing also publishes the g.points entries the written file
	// references. saveErr is the latest write's error: a failed write
	// leaves the file stale until a later one lands.
	var ckptMu sync.Mutex
	var saveErr error
	save := func(done []bool) {
		if opts.CheckpointPath == "" {
			return
		}
		if saveErr = writeCheckpoint(opts.CheckpointPath, sig, g, done); saveErr != nil {
			obs.Warn("checkpoint write failed", "path", opts.CheckpointPath, "err", saveErr.Error())
		} else {
			mCalCkptWrite.Inc()
		}
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	var next atomic.Int64
	work := func(w int) {
		cal := cals[w]
		if _, err := cal.database(); err != nil {
			setFatal(fmt.Errorf("calibration: building calibration database: %w", err))
			return
		}
		for {
			if ctx.Err() != nil {
				return
			}
			idx := int(next.Add(1)) - 1
			if idx >= n {
				return
			}
			if completed[idx] { // restored from a checkpoint
				continue
			}
			ic, im, ii := g.coords(idx)
			sh := g.latticeShares(ic, im, ii)
			p, err := cal.Calibrate(ctx, sh)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				// Degradable: mark the lattice point bad and move on; it is
				// filled from its neighbors after the sweep.
				errs[idx] = err
				mCalBadPoint.Inc()
				obs.Warn("grid point measurement failed",
					"cpu", sh.CPU, "mem", sh.Memory, "io", sh.IO, "err", err.Error())
				continue
			}
			g.points[idx] = p
			ckptMu.Lock()
			completed[idx] = true
			save(completed)
			ckptMu.Unlock()
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	// The extra workers' measurements and retries count as this
	// calibrator's: it ran the sweep.
	for _, cal := range cals {
		if cal != c {
			c.measures.Add(cal.measures.Load())
			c.retries.Add(cal.retries.Load())
		}
	}

	if fatal != nil {
		return nil, fatal
	}
	if err := ctx.Err(); err != nil {
		// The derived context is only ever cancelled by setFatal (handled
		// above) or by the caller's context.
		return nil, err
	}

	var bad []int
	for idx := range errs {
		if errs[idx] != nil {
			bad = append(bad, idx)
		}
	}
	if len(bad) > 0 {
		// A fill needs at least one good point; an entirely-bad lattice is
		// unfixable no matter what fraction the caller tolerates.
		frac := float64(len(bad)) / float64(n)
		if len(bad) == n || frac > maxBadPointFrac {
			ic, im, ii := g.coords(bad[0])
			sh := g.latticeShares(ic, im, ii)
			return nil, fmt.Errorf("calibration: %d of %d grid points failed (above the %.0f%% limit); first failure at (%g,%g,%g): %w",
				len(bad), n, maxBadPointFrac*100, sh.CPU, sh.Memory, sh.IO, errs[bad[0]])
		}
		g.fillBadPoints(bad, errs)
	}
	if len(bad) > 0 || saveErr != nil {
		// The finished file must be the complete grid LoadGrid serves:
		// rewrite it whole to add the fills or replace a stale file.
		save(nil)
		if saveErr != nil {
			return nil, fmt.Errorf("calibration: writing grid file: %w", saveErr)
		}
	}

	// Hand every point back to the shared calibrator's cache so later
	// direct Calibrate calls hit instead of re-measuring. With every point
	// cached, the calibration database goes too: a miss rebuilds it.
	for ic := range g.cpus {
		for im := range g.mems {
			for ii := range g.ios {
				c.prime(g.latticeShares(ic, im, ii), g.points[g.index(ic, im, ii)])
			}
		}
	}
	c.mu.Lock()
	c.data = nil
	c.mu.Unlock()
	obs.Info("grid calibrated", "points", n, "workers", workers,
		"cpu_axis", len(g.cpus), "mem_axis", len(g.mems), "io_axis", len(g.ios),
		"resumed", resumed, "bad_points", len(bad))
	return g, nil
}

// fillBadPoints replaces lattice points whose measurement failed with the
// component-wise average of their good orthogonal neighbors, falling back
// to the nearest good point by lattice Manhattan distance (smallest index
// wins ties). Fills always read the original good mask — never other
// fills — so the result is independent of fill order.
func (g *Grid) fillBadPoints(bad []int, errs []error) {
	nc, nm, ni := len(g.cpus), len(g.mems), len(g.ios)
	good := func(idx int) bool { return errs[idx] == nil }
	for _, idx := range bad {
		ic, im, ii := g.coords(idx)
		var neigh []optimizer.Params
		for _, d := range [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}} {
			jc, jm, ji := ic+d[0], im+d[1], ii+d[2]
			if jc < 0 || jc >= nc || jm < 0 || jm >= nm || ji < 0 || ji >= ni {
				continue
			}
			if j := g.index(jc, jm, ji); good(j) {
				neigh = append(neigh, g.points[j])
			}
		}
		if len(neigh) == 0 {
			best, bestD := -1, int(^uint(0)>>1)
			for j := range g.points {
				if !good(j) {
					continue
				}
				jc, jm, ji := g.coords(j)
				d := absInt(jc-ic) + absInt(jm-im) + absInt(ji-ii)
				if d < bestD {
					best, bestD = j, d
				}
			}
			neigh = append(neigh, g.points[best])
		}
		g.points[idx] = avgParams(neigh)
		sh := g.latticeShares(ic, im, ii)
		obs.Warn("grid point filled from neighbors",
			"cpu", sh.CPU, "mem", sh.Memory, "io", sh.IO, "neighbors", len(neigh))
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// avgParams is the component-wise mean of a set of parameter vectors.
func avgParams(ps []optimizer.Params) optimizer.Params {
	inv := 1 / float64(len(ps))
	var out optimizer.Params
	var cache, workMem float64
	for _, p := range ps {
		out.SeqPageCost += p.SeqPageCost * inv
		out.RandomPageCost += p.RandomPageCost * inv
		out.CPUTupleCost += p.CPUTupleCost * inv
		out.CPUIndexTupleCost += p.CPUIndexTupleCost * inv
		out.CPUOperatorCost += p.CPUOperatorCost * inv
		cache += float64(p.EffectiveCacheSizePages) * inv
		workMem += float64(p.WorkMemBytes) * inv
		out.TimePerSeqPage += p.TimePerSeqPage * inv
		out.Overlap += p.Overlap * inv
		out.TimePerLogFlush += p.TimePerLogFlush * inv
		out.WriteAmp += p.WriteAmp * inv
	}
	out.EffectiveCacheSizePages = int64(cache + 0.5)
	out.WorkMemBytes = int64(workMem + 0.5)
	return out
}

// Lookup returns the parameters at an exact lattice point.
func (g *Grid) Lookup(shares vm.Shares) (optimizer.Params, bool) {
	ic, okC := indexOf(g.cpus, shares.CPU)
	im, okM := indexOf(g.mems, shares.Memory)
	ii, okI := indexOf(g.ios, shares.IO)
	if !okC || !okM || !okI {
		return optimizer.Params{}, false
	}
	return g.points[g.index(ic, im, ii)], true
}

// indexOf finds v on a sorted axis by binary search, within the usual
// floating-point tolerance.
func indexOf(axis []float64, v float64) (int, bool) {
	i := sort.SearchFloat64s(axis, v-1e-9)
	if i < len(axis) && approxEq(axis[i], v) {
		return i, true
	}
	return 0, false
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// Interpolate returns parameters for an arbitrary allocation by trilinear
// interpolation over the lattice (clamped to the lattice's bounding box).
func (g *Grid) Interpolate(shares vm.Shares) optimizer.Params {
	c0, c1, cf := bracket(g.cpus, shares.CPU)
	m0, m1, mf := bracket(g.mems, shares.Memory)
	i0, i1, fi := bracket(g.ios, shares.IO)

	get := func(ic, im, ii int) optimizer.Params { return g.points[g.index(ic, im, ii)] }
	// Interpolate along I/O, then memory, then CPU.
	lerpIO := func(ic, im int) optimizer.Params {
		return lerpParams(get(ic, im, i0), get(ic, im, i1), fi)
	}
	lerpMem := func(ic int) optimizer.Params {
		return lerpParams(lerpIO(ic, m0), lerpIO(ic, m1), mf)
	}
	return lerpParams(lerpMem(c0), lerpMem(c1), cf)
}

// bracket finds the axis cell containing v and the interpolation fraction
// by binary search on the sorted axis.
func bracket(axis []float64, v float64) (lo, hi int, frac float64) {
	last := len(axis) - 1
	if v <= axis[0] {
		return 0, 0, 0
	}
	if v >= axis[last] {
		return last, last, 0
	}
	// First index with axis[hi] >= v; v is strictly inside the axis range,
	// so 1 <= hi <= last.
	hi = sort.SearchFloat64s(axis, v)
	lo = hi - 1
	span := axis[hi] - axis[lo]
	if span <= 0 {
		return lo, lo, 0
	}
	return lo, hi, (v - axis[lo]) / span
}

// lerpParams interpolates every continuous parameter field; integer-like
// fields (cache pages, work_mem) interpolate linearly and round.
func lerpParams(a, b optimizer.Params, f float64) optimizer.Params {
	l := func(x, y float64) float64 { return x + (y-x)*f }
	return optimizer.Params{
		SeqPageCost:             l(a.SeqPageCost, b.SeqPageCost),
		RandomPageCost:          l(a.RandomPageCost, b.RandomPageCost),
		CPUTupleCost:            l(a.CPUTupleCost, b.CPUTupleCost),
		CPUIndexTupleCost:       l(a.CPUIndexTupleCost, b.CPUIndexTupleCost),
		CPUOperatorCost:         l(a.CPUOperatorCost, b.CPUOperatorCost),
		EffectiveCacheSizePages: int64(l(float64(a.EffectiveCacheSizePages), float64(b.EffectiveCacheSizePages)) + 0.5),
		WorkMemBytes:            int64(l(float64(a.WorkMemBytes), float64(b.WorkMemBytes)) + 0.5),
		TimePerSeqPage:          l(a.TimePerSeqPage, b.TimePerSeqPage),
		Overlap:                 l(a.Overlap, b.Overlap),
		TimePerLogFlush:         l(a.TimePerLogFlush, b.TimePerLogFlush),
		WriteAmp:                l(a.WriteAmp, b.WriteAmp),
	}
}
