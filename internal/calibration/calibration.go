// Package calibration implements Section 5 of the paper: obtaining the
// optimizer parameter vector P for a resource allocation R by running
// designed synthetic queries on a synthetic database inside a virtual
// machine configured with allocation R, measuring their (simulated)
// execution times, and solving the resulting linear systems for the
// parameters.
//
// The calibration is staged so that each unknown is measured in a regime
// where it dominates:
//
//  1. CPU parameters (cpu_tuple_cost, cpu_operator_cost,
//     cpu_index_tuple_cost) come from warm-cache probes on a small table:
//     with no I/O, elapsed time is pure CPU and the probe times form a
//     least-squares system in the per-tuple/per-operator/per-index-entry
//     times.
//  2. The sequential page time (the paper's unit cost and our
//     TimePerSeqPage) comes from cold scans of a large table, where the
//     CPU contribution — predicted from stage 1 — is subtracted after
//     fitting an unknown CPU/I-O overlap factor.
//  3. The random page time comes from a cold, uncorrelated index probe.
//
// The resulting parameters are expressed as ratios to the sequential page
// time, exactly like PostgreSQL's seq_page_cost=1 convention, and cached
// per CPU × I/O point. A Grid calibrates a CPU × I/O lattice and
// interpolates between them — the paper's proposed remedy for the cost of
// calibration experiments.
//
// Because real calibration measurements are noisy and occasionally fail,
// the measurement path is fault-tolerant: every probe runs as a set of
// trials aggregated by trimmed median, transient measurement errors are
// retried with exponential backoff, least-squares fits whose residual
// exceeds a threshold fall back to an outlier-rejecting IRLS fit, panics
// in the measurement path are converted into per-point errors, and the
// whole pipeline accepts a context.Context for cancellation and
// deadlines. Faults are injected deterministically through
// internal/faults (the DBVIRT_FAULTS environment variable, or
// Config.Faults) so every recovery path is exercisable in tests and CI.
package calibration

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbvirt/internal/engine"
	"dbvirt/internal/faults"
	"dbvirt/internal/linalg"
	"dbvirt/internal/memo"
	"dbvirt/internal/obs"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
	"dbvirt/internal/vm"
	"dbvirt/internal/wal"
)

// Always-on calibration metrics (see internal/obs). A "hit" is a cache
// lookup answered from the per-allocation cache; a "join" piggybacks on a
// measurement already in flight; together they are the dedup savings over
// measures, which counts full probe suites actually run. The fault plane
// counts injected faults, transient-retry attempts (with their backoff
// latency), robust-fit fallbacks, and lattice points abandoned as bad.
var (
	mCalHit          = obs.Global.Counter("calibration.cache.hit")
	mCalJoin         = obs.Global.Counter("calibration.cache.inflight_join")
	mCalMeasure      = obs.Global.Counter("calibration.measure.count")
	mCalRetry        = obs.Global.Counter("calibration.retry.count")
	mCalFault        = obs.Global.Counter("calibration.fault.injected")
	mCalPanic        = obs.Global.Counter("calibration.panic.recovered")
	mCalRobustFit    = obs.Global.Counter("calibration.fit.robust")
	mCalBadPoint     = obs.Global.Counter("calibration.grid.bad_points")
	mCalCkptWrite    = obs.Global.Counter("calibration.checkpoint.writes")
	mCalCkptResume   = obs.Global.Counter("calibration.checkpoint.resumed_points")
	hMeasureSeconds  = obs.Global.Histogram("calibration.measure.seconds")
	hRetryBackoff    = obs.Global.Histogram("calibration.retry.backoff_seconds")
	gResidualCPU     = obs.Global.Gauge("calibration.residual.cpu")
	gResidualSeqScan = obs.Global.Gauge("calibration.residual.seq")
)

// Config controls the calibration environment.
type Config struct {
	// Machine is the physical machine model to calibrate against.
	Machine vm.MachineConfig
	// Engine is the session configuration (buffer/work-mem split); it must
	// match the configuration of the sessions the calibrated parameters
	// will plan for.
	Engine engine.Config
	// NarrowRows sizes the warm-probe table (must fit the pool at every
	// calibrated memory share).
	NarrowRows int
	// BigRows sizes the cold-probe table (must exceed the pool at every
	// calibrated memory share).
	BigRows int
	// Seed makes the synthetic database deterministic.
	Seed int64
	// Parallelism bounds the number of worker goroutines CalibrateGrid
	// fans lattice points out over; 0 (the default) means
	// runtime.GOMAXPROCS(0), 1 forces serial calibration. Each worker owns
	// its own calibration database and engine instances, so the simulated
	// VM clocks never interleave and results are byte-identical to a
	// serial run.
	Parallelism int
	// Faults injects deterministic measurement faults (see
	// internal/faults). nil consults the DBVIRT_FAULTS environment
	// variable; a process with neither runs fault-free.
	Faults *faults.Injector
	// Trials is the number of timed trials per probe, aggregated by
	// trimmed median; 0 means 1 when fault-free and 5 under injection
	// (the median then rejects injected noise and spikes).
	Trials int

	// randProbeRows and retryBackoff override randProbeRowsDefault and
	// retryBackoffDefault when non-zero; a negative retryBackoff retries
	// without sleeping. Only in-package tests set them.
	randProbeRows int
	retryBackoff  time.Duration
}

const (
	// randProbeRowsDefault is the target number of rows fetched by the
	// random-I/O probe.
	randProbeRowsDefault = 200
	// maxAttempts bounds the attempts of one trial on transient
	// measurement errors (up to 3 retries).
	maxAttempts = 4
	// retryBackoffDefault is the initial backoff before a transient
	// retry; it doubles per attempt.
	retryBackoffDefault = 5 * time.Millisecond
	// robustResidualThreshold is the relative fit residual above which a
	// stage falls back to the outlier-rejecting IRLS fit.
	robustResidualThreshold = 0.05
)

// workers resolves the configured parallelism to a worker count.
func (c Config) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// trials resolves the per-probe trial count.
func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Faults.Enabled() {
		return 5
	}
	return 1
}

// randRows resolves the random-I/O probe's target row count.
func (c Config) randRows() int {
	if c.randProbeRows > 0 {
		return c.randProbeRows
	}
	return randProbeRowsDefault
}

// backoff resolves the initial transient-retry backoff.
func (c Config) backoff() time.Duration {
	switch {
	case c.retryBackoff < 0:
		return 0
	case c.retryBackoff > 0:
		return c.retryBackoff
	}
	return retryBackoffDefault
}

// DefaultConfig calibrates the default machine.
func DefaultConfig() Config {
	return Config{
		Machine:    vm.DefaultMachineConfig(),
		Engine:     engine.DefaultConfig(),
		NarrowRows: 20000,
		BigRows:    130000,
		Seed:       1,
	}
}

// Calibrator owns the synthetic calibration database and a parameter
// cache. It is safe for concurrent use: the database is built on demand
// and is read-only afterwards (every measurement session gets its own
// machine, VM, and buffer pool), and the cache is a memo.Memo, so
// concurrent Calibrate calls for the same allocation join one in-flight
// measurement instead of repeating it. A grid sweep releases the database
// once every lattice point is cached; a later miss rebuilds it, bit for
// bit, from the seeded Config.
type Calibrator struct {
	cfg Config
	// envErr records a malformed DBVIRT_FAULTS spec; surfacing it from
	// Calibrate (rather than panicking in New) keeps construction
	// infallible while still failing misconfigured runs loudly.
	envErr error

	mu sync.Mutex // guards data
	// data is the calibration database, nil until a measurement needs it
	// and again after a grid sweep; a measurement keeps its own pointer.
	data *calDB

	measures atomic.Int64 // completed measure() runs, for tests/reporting

	cache *memo.Memo[[2]int64, optimizer.Params] // per CPU × I/O point, unbounded
}

// New creates a calibrator for the given configuration. A nil cfg.Faults
// is resolved from the DBVIRT_FAULTS environment variable.
func New(cfg Config) *Calibrator {
	c := &Calibrator{
		cfg:   cfg,
		cache: memo.New[[2]int64, optimizer.Params](0, nil, memo.Counters{Hit: mCalHit, Join: mCalJoin}),
	}
	if cfg.Faults == nil {
		inj, err := faults.FromEnv()
		if err != nil {
			c.envErr = err
		} else {
			c.cfg.Faults = inj
		}
	}
	return c
}

// Measurements returns how many full probe suites this calibrator has run
// (cache hits and joined duplicate requests do not count).
func (c *Calibrator) Measurements() int64 { return c.measures.Load() }

// calDB is the synthetic calibration database and the facts about it
// that the probe equations use.
type calDB struct {
	db             *engine.Database
	bigPages       float64
	bigRows        float64
	narrowRows     float64
	randLo, randHi int64   // key range of the random probe
	randK          float64 // exact rows matched by the probe
}

const padLen = 420 // big-table padding: ~16 rows per 8 KiB page

// database returns the calibration database, building it if the
// calibrator holds none.
func (c *Calibrator) database() (*calDB, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.data == nil {
		c.data, err = c.build()
	}
	return c.data, err
}

func (c *Calibrator) build() (*calDB, error) {
	m, err := vm.NewMachine(c.cfg.Machine)
	if err != nil {
		return nil, err
	}
	loaderVM, err := m.NewVM("cal-loader", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		return nil, err
	}
	db := engine.NewDatabase()
	s, err := engine.NewSession(db, loaderVM, c.cfg.Engine)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.cfg.Seed))

	if _, err := s.Exec(`CREATE TABLE cal_narrow (a INT, b INT, c INT)`); err != nil {
		return nil, err
	}
	narrow, err := db.Catalog.Table("cal_narrow")
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.cfg.NarrowRows; i++ {
		tup := storage.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(1000))),
			types.NewInt(int64(1000 + rng.Intn(1000))),
		}
		if err := s.InsertTuple(narrow, tup); err != nil {
			return nil, err
		}
	}
	if _, err := s.Exec(`CREATE INDEX cal_narrow_a ON cal_narrow (a)`); err != nil {
		return nil, err
	}

	if _, err := s.Exec(`CREATE TABLE cal_big (a INT, b INT, c INT, r INT, pad TEXT)`); err != nil {
		return nil, err
	}
	big, err := db.Catalog.Table("cal_big")
	if err != nil {
		return nil, err
	}
	pad := make([]byte, padLen)
	for i := range pad {
		pad[i] = 'x'
	}
	var randK int64
	// The random probe selects r in [randLo, randHi]; r is uniform over
	// [0, BigRows), so a window of randRows() keys matches ~that many
	// rows, scattered uniformly over the heap.
	d := &calDB{db: db, randLo: int64(c.cfg.BigRows / 2)}
	d.randHi = d.randLo + int64(c.cfg.randRows()) - 1
	for i := 0; i < c.cfg.BigRows; i++ {
		r := int64(rng.Intn(c.cfg.BigRows))
		if r >= d.randLo && r <= d.randHi {
			randK++
		}
		tup := storage.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(1000))),
			types.NewInt(int64(1000 + rng.Intn(1000))),
			types.NewInt(r),
			types.NewString(string(pad)),
		}
		if err := s.InsertTuple(big, tup); err != nil {
			return nil, err
		}
	}
	if _, err := s.Exec(`CREATE INDEX cal_big_r ON cal_big (r)`); err != nil {
		return nil, err
	}
	if _, err := s.Exec("ANALYZE"); err != nil {
		return nil, err
	}
	if err := s.Pool.FlushAll(); err != nil {
		return nil, err
	}

	d.bigPages = float64(db.Disk.NumPages(big.Heap.FileID()))
	d.bigRows = float64(c.cfg.BigRows)
	d.narrowRows = float64(c.cfg.NarrowRows)
	d.randK = float64(randK)

	// The cold-probe table must exceed the buffer pool even at a full
	// memory share, or the stage B/C probes would not be I/O-bound and the
	// fitted page times would be meaningless.
	maxPool := float64(c.cfg.Machine.MemBytes) * c.cfg.Engine.BufferFrac / storage.PageSize
	if d.bigPages <= 1.2*maxPool {
		return nil, fmt.Errorf("calibration: big table (%d pages) must exceed the largest possible buffer pool (%d pages) by 20%%; increase BigRows or shrink the machine memory",
			int(d.bigPages), int(maxPool))
	}
	narrowTable, err := db.Catalog.Table("cal_narrow")
	if err != nil {
		return nil, err
	}
	narrowPages := float64(db.Disk.NumPages(narrowTable.Heap.FileID()))
	if narrowPages > 0.5*maxPool*minMemShare {
		return nil, fmt.Errorf("calibration: narrow table (%d pages) must fit the smallest calibrated pool; decrease NarrowRows",
			int(narrowPages))
	}
	return d, nil
}

// minMemShare is the smallest memory share a measurement at full memory
// is known to stand for (TestFittedParamsIgnoreMemory; at 0.2 the quick
// configuration's random probe re-reads evicted heap pages), and the
// narrow table must stay cached down to it.
const minMemShare = 0.25

// newMeasureSession creates a fresh session (cold buffer pool) on d, on a
// fresh machine with the given shares.
func (c *Calibrator) newMeasureSession(d *calDB, shares vm.Shares) (*engine.Session, error) {
	m, err := vm.NewMachine(c.cfg.Machine)
	if err != nil {
		return nil, err
	}
	v, err := m.NewVM("cal", shares)
	if err != nil {
		return nil, err
	}
	return engine.NewSession(d.db, v, c.cfg.Engine)
}

// timeQuery runs a query and returns its simulated elapsed seconds.
func timeQuery(s *engine.Session, query string) (float64, error) {
	start := s.VM.Snapshot()
	if _, err := s.RunStatement(query); err != nil {
		return 0, err
	}
	return s.VM.ElapsedSince(start), nil
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// probeKey names one probe measurement stably for the fault injector:
// stage, query, and the CPU and I/O shares — never scheduling artifacts,
// so injected faults are identical across worker counts and resumed runs.
func probeKey(stage, query string, shares vm.Shares) string {
	return fmt.Sprintf("%s|%s|cpu=%.6f,io=%.6f", stage, query, shares.CPU, shares.IO)
}

// runTrial executes one timed trial, consulting the fault injector and
// retrying transient failures with exponential backoff. It returns the
// (possibly noise-scaled) elapsed seconds and the number of attempts.
func (c *Calibrator) runTrial(ctx context.Context, key string, run func() (float64, error)) (float64, int, error) {
	backoff := c.cfg.backoff()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, attempt, err
		}
		out := c.cfg.Faults.Measurement(key, attempt)
		if out.Panic {
			panic(fmt.Sprintf("calibration: injected panic (key %q, attempt %d)", key, attempt))
		}
		if out.Err != nil {
			mCalFault.Inc()
			if out.Transient && attempt+1 < maxAttempts {
				mCalRetry.Inc()
				hRetryBackoff.Observe(backoff.Seconds())
				obs.Debug("calibration transient fault, retrying",
					"key", key, "attempt", attempt, "backoff", backoff.String())
				if err := sleepCtx(ctx, backoff); err != nil {
					return 0, attempt + 1, err
				}
				backoff *= 2
				continue
			}
			return 0, attempt + 1, fmt.Errorf("calibration: measurement %q failed after %d attempts: %w", key, attempt+1, out.Err)
		}
		el, err := run()
		if err != nil {
			// Engine-level failures are bugs in the probe suite, not
			// transient measurement noise; they are never retried.
			return 0, attempt + 1, err
		}
		return el * out.Scale, attempt + 1, nil
	}
}

// measureProbe runs the configured number of trials of one probe and
// aggregates them by trimmed median. run must produce a fresh, equivalent
// measurement each call (warm probes rerun on the warmed session; cold
// probes build a fresh session per trial). attempts accumulates the total
// trial attempts into the caller's per-point counter.
func (c *Calibrator) measureProbe(ctx context.Context, keyBase string, attempts *int, run func() (float64, error)) (float64, error) {
	k := c.cfg.trials()
	vals := make([]float64, 0, k)
	for t := 0; t < k; t++ {
		v, a, err := c.runTrial(ctx, fmt.Sprintf("%s|trial=%d", keyBase, t), run)
		*attempts += a
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return trimmedMedian(vals), nil
}

// trimmedMedian aggregates trial measurements: with five or more trials
// the extremes are dropped first (rejecting latency spikes outright), and
// the median of what remains is returned. One trial returns itself, so
// the fault-free single-trial path is bit-identical to a direct
// measurement.
func trimmedMedian(v []float64) float64 {
	sort.Float64s(v)
	if len(v) >= 5 {
		v = v[1 : len(v)-1]
	}
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return 0.5 * (v[n/2-1] + v[n/2])
}

// requirePlanNode verifies the session would execute the probe with the
// expected access method; a degenerate probe plan would invalidate the
// linear model behind the calibration equations.
func requirePlanNode(s *engine.Session, query, nodeName string) error {
	expl, err := s.Explain(query)
	if err != nil {
		return err
	}
	if !strings.Contains(expl, nodeName) {
		return fmt.Errorf("calibration: probe %q did not plan as %s:\n%s", query, nodeName, expl)
	}
	return nil
}

func cacheKey(shares vm.Shares) [2]int64 {
	q := func(f float64) int64 { return int64(math.Round(f * 1e6)) }
	return [2]int64{q(shares.CPU), q(shares.IO)}
}

// memory is the rule this configuration's sessions are sized by.
func (c Config) memory() Memory {
	return Memory{MemBytes: c.Machine.MemBytes, BufferFrac: c.Engine.BufferFrac, WorkMemFrac: c.Engine.WorkMemFrac}
}

// Calibrate measures and returns the optimizer parameters P for the given
// resource allocation R. Memory moves no fitted parameter, so they are
// measured at full memory and cached per CPU × I/O point, and the memory
// fields follow R's share as a session's do; concurrent calls for the
// same point share one measurement. The context cancels a measurement
// between probes (and during retry backoff); a joiner whose context is
// cancelled stops waiting without disturbing the in-flight measurement it
// joined.
func (c *Calibrator) Calibrate(ctx context.Context, shares vm.Shares) (optimizer.Params, error) {
	if c.envErr != nil {
		return optimizer.Params{}, c.envErr
	}
	if !shares.Valid() {
		return optimizer.Params{}, fmt.Errorf("calibration: invalid shares %v", shares)
	}
	if err := ctx.Err(); err != nil {
		return optimizer.Params{}, err
	}
	p, _, err := c.cache.Do(ctx, cacheKey(shares), func() (optimizer.Params, error) {
		sp := obs.StartSpan("calibrate.point")
		defer sp.End()
		sp.SetArg("cpu", shares.CPU)
		sp.SetArg("io", shares.IO)
		start := time.Now()
		d, err := c.database()
		if err != nil {
			return optimizer.Params{}, err
		}
		p, err := c.measureSafe(ctx, d, vm.Shares{CPU: shares.CPU, Memory: 1, IO: shares.IO}, sp)
		if err == nil {
			mCalMeasure.Inc()
			hMeasureSeconds.ObserveSince(start)
		}
		return p, err
	})
	if err != nil {
		return optimizer.Params{}, err
	}
	return c.cfg.memory().params(p, shares.Memory), nil
}

// measureSafe runs measure under recover(), converting a panic in the
// measurement path into a per-point error instead of process death.
func (c *Calibrator) measureSafe(ctx context.Context, d *calDB, shares vm.Shares, sp *obs.Span) (p optimizer.Params, err error) {
	defer func() {
		if r := recover(); r != nil {
			mCalPanic.Inc()
			obs.Error("calibration measurement panicked",
				"cpu", shares.CPU, "io", shares.IO, "panic", fmt.Sprint(r))
			p = optimizer.Params{}
			err = fmt.Errorf("calibration: measurement at %v panicked: %v", shares, r)
		}
	}()
	return c.measure(ctx, d, shares, sp)
}

// fitStage solves one calibration stage's least-squares system. When the
// relative residual exceeds the robust threshold — the signature of a
// corrupted measurement surviving the trimmed median — it falls back to
// the outlier-rejecting IRLS fit. Singular systems are wrapped with the
// stage, the allocation being calibrated, and the conditioning of the
// normal equations, so the failing fit is identifiable from the error
// alone.
func (c *Calibrator) fitStage(stage string, rows [][]float64, rhs []float64, shares vm.Shares) ([]float64, float64, error) {
	a := linalg.FromRows(rows)
	sol, err := linalg.LeastSquares(a, rhs)
	if err != nil {
		return nil, 0, fmt.Errorf("calibration: %s stage fit at shares %v (%s): %w",
			stage, shares, linalg.DescribeSystem(a), err)
	}
	res := relResidual(rows, sol, rhs)
	if res > robustResidualThreshold {
		rob, rerr := linalg.RobustLeastSquares(a, rhs, 0)
		if rerr == nil {
			mCalRobustFit.Inc()
			robRes := relResidual(rows, rob, rhs)
			obs.Warn("calibration fit residual above threshold; using robust IRLS fit",
				"stage", stage, "cpu", shares.CPU, "io", shares.IO,
				"residual", res, "robust_residual", robRes)
			return rob, robRes, nil
		}
	}
	return sol, res, nil
}

// measure runs the full probe suite at one allocation. sp is the
// enclosing per-point trace span (nil-safe); each stage gets a child and
// the point span is annotated with the total trial attempts (retries
// included).
func (c *Calibrator) measure(ctx context.Context, d *calDB, shares vm.Shares, sp *obs.Span) (optimizer.Params, error) {
	attempts := 0
	defer func() { sp.SetArg("attempts", attempts) }()

	// --- Stage A: warm CPU probes on the narrow table ---
	spA := sp.Child("calibrate.stage_a.cpu")
	warm, err := c.newMeasureSession(d, shares)
	if err != nil {
		return optimizer.Params{}, err
	}
	T := d.narrowRows
	K := math.Floor(T / 20) // index probe range size
	cpuProbes := []struct {
		query string
		coef  []float64 // [tTup, tOp, tIdxTup]
	}{
		// max(a): per row 1 tuple + 1 aggregate transition.
		{"SELECT max(a) FROM cal_narrow", []float64{T, T, 0}},
		// Two always-true filter operators on top.
		{"SELECT max(a) FROM cal_narrow WHERE b < c AND c < 999999", []float64{T, 3 * T, 0}},
		// Three filter operators.
		{"SELECT max(a) FROM cal_narrow WHERE b < c AND c < 999999 AND b < 888888", []float64{T, 4 * T, 0}},
		// Correlated index range: K index entries + K tuples + K agg ops.
		{fmt.Sprintf("SELECT max(a) FROM cal_narrow WHERE a BETWEEN 0 AND %d", int64(K)-1), []float64{K, K, K}},
	}
	var rows [][]float64
	var rhs []float64
	for _, pr := range cpuProbes {
		// First run warms the cache; the trials measure the steady state.
		if _, err := timeQuery(warm, pr.query); err != nil {
			return optimizer.Params{}, fmt.Errorf("calibration: probe %q: %w", pr.query, err)
		}
		pq := pr.query
		el, err := c.measureProbe(ctx, probeKey("stage_a", pq, shares), &attempts, func() (float64, error) {
			return timeQuery(warm, pq)
		})
		if err != nil {
			return optimizer.Params{}, fmt.Errorf("calibration: probe %q: %w", pq, err)
		}
		rows = append(rows, pr.coef)
		rhs = append(rhs, el)
	}
	cpuSol, resA, err := c.fitStage("cpu", rows, rhs, shares)
	if err != nil {
		return optimizer.Params{}, err
	}
	tTup, tOp, tIdxTup := cpuSol[0], cpuSol[1], cpuSol[2]
	if tTup <= 0 || tOp <= 0 || tIdxTup <= 0 {
		return optimizer.Params{}, fmt.Errorf("calibration: CPU stage at shares %v: non-positive CPU parameters %v", shares, cpuSol)
	}
	gResidualCPU.Set(resA)
	spA.SetArg("residual", resA)
	spA.End()
	obs.Debug("calibration CPU fit",
		"cpu", shares.CPU, "io", shares.IO,
		"t_tuple", tTup, "t_op", tOp, "t_idx_tuple", tIdxTup, "residual", resA)

	// --- Stage B: cold sequential scans of the big table ---
	spB := sp.Child("calibrate.stage_b.seq")
	// elapsed = pages*tSeq + gamma*cpu, with cpu predicted from stage A
	// and gamma the effective (1 - overlap) factor.
	R := d.bigRows
	S := d.bigPages
	bigProbes := []struct {
		query string
		cpu   float64
	}{
		{"SELECT max(a) FROM cal_big", R * (tTup + tOp)},
		{"SELECT max(a) FROM cal_big WHERE b < c AND c < 999999", R * (tTup + 3*tOp)},
		{"SELECT max(a) FROM cal_big WHERE b < c AND c < 999999 AND b < 888888 AND b < 777777", R * (tTup + 5*tOp)},
	}
	rows = rows[:0]
	rhs = rhs[:0]
	for _, pr := range bigProbes {
		planCheck, err := c.newMeasureSession(d, shares)
		if err != nil {
			return optimizer.Params{}, err
		}
		if err := requirePlanNode(planCheck, pr.query, "SeqScan"); err != nil {
			return optimizer.Params{}, err
		}
		pq := pr.query
		el, err := c.measureProbe(ctx, probeKey("stage_b", pq, shares), &attempts, func() (float64, error) {
			cold, err := c.newMeasureSession(d, shares)
			if err != nil {
				return 0, err
			}
			return timeQuery(cold, pq)
		})
		if err != nil {
			return optimizer.Params{}, fmt.Errorf("calibration: probe %q: %w", pq, err)
		}
		rows = append(rows, []float64{S, pr.cpu})
		rhs = append(rhs, el)
	}
	seqSol, resB, err := c.fitStage("seq", rows, rhs, shares)
	if err != nil {
		return optimizer.Params{}, err
	}
	tSeq, gamma := seqSol[0], seqSol[1]
	if tSeq <= 0 {
		return optimizer.Params{}, fmt.Errorf("calibration: seq stage at shares %v: non-positive tSeq %g", shares, tSeq)
	}
	if gamma < 0 {
		gamma = 0
	}
	gResidualSeqScan.Set(resB)
	spB.SetArg("residual", resB)
	spB.End()
	obs.Debug("calibration seq fit",
		"cpu", shares.CPU, "io", shares.IO,
		"t_seq", tSeq, "gamma", gamma, "residual", resB)

	// --- Stage C: cold random index probe ---
	spC := sp.Child("calibrate.stage_c.rand")
	planCheck, err := c.newMeasureSession(d, shares)
	if err != nil {
		return optimizer.Params{}, err
	}
	probe := fmt.Sprintf("SELECT count(*) FROM cal_big WHERE r BETWEEN %d AND %d", d.randLo, d.randHi)
	if err := requirePlanNode(planCheck, probe, "IndexScan"); err != nil {
		return optimizer.Params{}, err
	}
	el, err := c.measureProbe(ctx, probeKey("stage_c", probe, shares), &attempts, func() (float64, error) {
		cold, err := c.newMeasureSession(d, shares)
		if err != nil {
			return 0, err
		}
		return timeQuery(cold, probe)
	})
	if err != nil {
		return optimizer.Params{}, fmt.Errorf("calibration: random probe: %w", err)
	}
	kk := d.randK
	cpuC := kk * (tIdxTup + tTup + tOp)
	// K heap pages (scattered) plus tree descent and a few leaf pages.
	denom := kk + 4
	tRand := (el - gamma*cpuC) / denom
	if tRand <= tSeq {
		// A degenerate measurement (e.g. everything cached); random reads
		// are never cheaper than sequential ones.
		tRand = tSeq
	}
	spC.SetArg("t_rand", tRand)
	spC.End()

	// --- Stage D: write-path probes ---
	// Two insert workloads with identical logical work: wRows autocommit
	// single-row transactions (wRows log flushes) against one explicit
	// transaction of wRows inserts (one flush). The elapsed difference per
	// extra flush is the marginal commit latency — TimePerLogFlush, the
	// group-commit saving write-bound tenants are sensitive to. The batch
	// run also reports durable log bytes per logical tuple byte: WriteAmp.
	spD := sp.Child("calibrate.stage_d.write")
	const wRows = 64
	var logicalBytes, logBytes int64
	runWrite := func(batch bool) (float64, error) {
		m, err := vm.NewMachine(c.cfg.Machine)
		if err != nil {
			return 0, err
		}
		v, err := m.NewVM("cal-write", shares)
		if err != nil {
			return 0, err
		}
		wdb := engine.NewDatabase()
		if err := wdb.EnableLogging(wal.NewMemDevice(), 1); err != nil {
			return 0, err
		}
		ws, err := engine.NewSession(wdb, v, c.cfg.Engine)
		if err != nil {
			return 0, err
		}
		if _, err := ws.Exec(`CREATE TABLE cal_write (a INT, b INT)`); err != nil {
			return 0, err
		}
		_, bytesBefore := wdb.LogStats()
		start := v.Snapshot()
		if batch {
			if _, err := ws.Exec("BEGIN"); err != nil {
				return 0, err
			}
		}
		var lb int64
		for i := 0; i < wRows; i++ {
			if _, err := ws.Exec(fmt.Sprintf("INSERT INTO cal_write VALUES (%d, %d)", i, i*7)); err != nil {
				return 0, err
			}
			lb += int64(storage.EncodedLen(storage.Tuple{
				types.NewInt(int64(i)), types.NewInt(int64(i * 7)),
			}))
		}
		if batch {
			if _, err := ws.Exec("COMMIT"); err != nil {
				return 0, err
			}
		}
		el := v.ElapsedSince(start)
		if batch {
			_, bytesAfter := wdb.LogStats()
			logicalBytes, logBytes = lb, bytesAfter-bytesBefore
		}
		return el, nil
	}
	elSingle, err := c.measureProbe(ctx, probeKey("stage_d", "write-autocommit", shares), &attempts, func() (float64, error) {
		return runWrite(false)
	})
	if err != nil {
		return optimizer.Params{}, fmt.Errorf("calibration: write probe (autocommit): %w", err)
	}
	elBatch, err := c.measureProbe(ctx, probeKey("stage_d", "write-batch", shares), &attempts, func() (float64, error) {
		return runWrite(true)
	})
	if err != nil {
		return optimizer.Params{}, fmt.Errorf("calibration: write probe (batch): %w", err)
	}
	tFlush := (elSingle - elBatch) / (wRows - 1)
	if tFlush < 0 {
		tFlush = 0
	}
	writeAmp := 1.0
	if logicalBytes > 0 && logBytes > logicalBytes {
		writeAmp = float64(logBytes) / float64(logicalBytes)
	}
	spD.SetArg("t_flush", tFlush)
	spD.SetArg("write_amp", writeAmp)
	spD.End()
	obs.Debug("calibration write fit",
		"cpu", shares.CPU, "io", shares.IO,
		"t_flush", tFlush, "write_amp", writeAmp)

	// --- Assemble P(R) ---
	overlap := 1 - gamma
	if overlap < 0 {
		overlap = 0
	}
	if overlap > 1 {
		overlap = 1
	}
	p := c.cfg.memory().params(optimizer.Params{
		SeqPageCost:       1,
		RandomPageCost:    tRand / tSeq,
		CPUTupleCost:      tTup / tSeq,
		CPUIndexTupleCost: tIdxTup / tSeq,
		CPUOperatorCost:   tOp / tSeq,
		TimePerSeqPage:    tSeq,
		Overlap:           overlap,
		TimePerLogFlush:   tFlush,
		WriteAmp:          writeAmp,
	}, shares.Memory)
	if err := p.Validate(); err != nil {
		return optimizer.Params{}, fmt.Errorf("calibration: %w", err)
	}
	c.measures.Add(1)
	return p, nil
}

// relResidual is the relative RMS residual ‖A·x − b‖/‖b‖ of a
// least-squares fit — the calibration's per-stage goodness-of-fit number
// exported as a gauge and logged per lattice point.
func relResidual(rows [][]float64, x, b []float64) float64 {
	var num, den float64
	for i, row := range rows {
		pred := 0.0
		for j, a := range row {
			pred += a * x[j]
		}
		d := pred - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
