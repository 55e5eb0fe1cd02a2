// Package experiments reproduces the paper's evaluation: Figure 3
// (calibrated cpu_tuple_cost across CPU and memory allocations), Figure 4
// (estimated vs actual sensitivity of TPC-H Q4 and Q13 to the CPU share),
// and Figure 5 (total execution time of a 3×Q4 workload and a 9×Q13
// workload under the default 50/50 CPU split versus the 25/75 split the
// what-if model selects), plus the ablation studies listed in DESIGN.md.
//
// The harness returns structured rows; cmd/experiments and the benchmark
// suite format them.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/engine"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/vm"
	"dbvirt/internal/wal"
	"dbvirt/internal/workload"
)

// Env is one experiment environment: a machine model, a workload scale,
// and a shared calibrator. Each workload gets its own VM and session;
// the read-only TPC-H database is built once per (Scale, Seed) and shared.
type Env struct {
	Machine vm.MachineConfig
	Engine  engine.Config
	Scale   workload.Scale
	CalCfg  calibration.Config
	Seed    int64
	// Parallelism is handed to the calibrator (grid fan-out) and to every
	// design problem the harness solves; 0 means runtime.GOMAXPROCS(0).
	// Results are identical at every setting.
	Parallelism int

	mu  sync.Mutex
	dbs map[dbKey]*engine.Database
	cal *calibration.Calibrator
}

// NewEnv creates an experiment environment. With zero values it uses the
// default machine and the paper-regime experiment scale.
func NewEnv(scale workload.Scale, machine vm.MachineConfig) *Env {
	calCfg := calibration.DefaultConfig()
	calCfg.Machine = machine
	// Size the calibration tables to the machine: the big table must
	// exceed the largest possible buffer pool.
	maxPoolPages := int(float64(machine.MemBytes) * 0.75 / 8192)
	calCfg.BigRows = maxPoolPages * 2 * 16 // ~2x pool at ~16 rows/page
	calCfg.NarrowRows = maxPoolPages * 4   // ~pool/57 pages: comfortably cached
	if calCfg.NarrowRows > 20000 {
		calCfg.NarrowRows = 20000
	}
	return &Env{
		Machine: machine,
		Engine:  engine.DefaultConfig(),
		Scale:   scale,
		CalCfg:  calCfg,
		Seed:    7,
		dbs:     make(map[dbKey]*engine.Database),
	}
}

// DefaultEnv is the environment of the paper-reproduction figures.
func DefaultEnv() *Env {
	return NewEnv(workload.ExperimentScale(), vm.DefaultMachineConfig())
}

// QuickEnv is a scaled-down environment for -short benchmark runs and CI.
func QuickEnv() *Env {
	cfg := vm.DefaultMachineConfig()
	cfg.MemBytes = 16 << 20
	return NewEnv(workload.SmallScale(), cfg)
}

// EnvForScale returns a fresh environment for a named database scale:
// "tiny" (the tiny scale on the default machine), "small" (QuickEnv) or
// "experiment" (DefaultEnv).
func EnvForScale(name string) (*Env, error) {
	switch name {
	case "tiny":
		return NewEnv(workload.TinyScale(), vm.DefaultMachineConfig()), nil
	case "small":
		return QuickEnv(), nil
	case "experiment":
		return DefaultEnv(), nil
	}
	return nil, fmt.Errorf("unknown scale %q (want tiny, small, or experiment)", name)
}

// Calibrator returns the shared (caching) calibrator.
func (e *Env) Calibrator() *calibration.Calibrator {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cal == nil {
		cfg := e.CalCfg
		if cfg.Parallelism == 0 {
			cfg.Parallelism = e.Parallelism
		}
		e.cal = calibration.New(cfg)
	}
	return e.cal
}

// dbKey is what decides the contents of a workload database.
type dbKey struct {
	scale workload.Scale
	seed  int64
}

// DB returns (building on first use) the TPC-H database of the current
// Scale and Seed, shared by every caller; name only labels the build.
func (e *Env) DB(name string) (*engine.Database, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := dbKey{e.Scale, e.Seed}
	if db, ok := e.dbs[key]; ok {
		return db, nil
	}
	m, err := vm.NewMachine(e.Machine)
	if err != nil {
		return nil, err
	}
	loader, err := m.NewVM(name+"-loader", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		return nil, err
	}
	db := engine.NewDatabase()
	s, err := engine.NewSession(db, loader, e.Engine)
	if err != nil {
		return nil, err
	}
	if err := workload.Build(s, e.Scale, e.Seed); err != nil {
		return nil, fmt.Errorf("experiments: building %s: %w", name, err)
	}
	e.dbs[key] = db
	return db, nil
}

// MeasureQuery runs one query in a fresh VM at the given shares (warm run
// first) and returns the simulated elapsed seconds of the measured run.
func (e *Env) MeasureQuery(db *engine.Database, query string, shares vm.Shares) (float64, error) {
	m, err := vm.NewMachine(e.Machine)
	if err != nil {
		return 0, err
	}
	v, err := m.NewVM("measure", shares)
	if err != nil {
		return 0, err
	}
	s, err := engine.NewSession(db, v, e.Engine)
	if err != nil {
		return 0, err
	}
	if _, err := s.RunStatement(query); err != nil { // warm the cache
		return 0, err
	}
	start := v.Snapshot()
	if _, err := s.RunStatement(query); err != nil {
		return 0, err
	}
	return v.ElapsedSince(start), nil
}

// MeasureWrite executes a write workload against a fresh WAL-logged
// database in a VM at the given shares and returns the simulated elapsed
// seconds plus the workload's log footprint (bytes appended, group
// fsyncs) — the inputs of the write-path what-if estimate. The base table
// is built by a full-share loader VM on the same machine; only the write
// statements themselves are timed. Each statement is an autocommit
// transaction, so flushes == len(w.Statements).
func (e *Env) MeasureWrite(w workload.Workload, baseRows int, shares vm.Shares) (elapsed float64, logBytes int64, flushes int, err error) {
	lm, err := vm.NewMachine(e.Machine)
	if err != nil {
		return 0, 0, 0, err
	}
	loader, err := lm.NewVM("write-loader", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		return 0, 0, 0, err
	}
	db := engine.NewDatabase()
	if err := db.EnableLogging(wal.NewMemDevice(), 1); err != nil {
		return 0, 0, 0, err
	}
	ls, err := engine.NewSession(db, loader, e.Engine)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := workload.BuildWriteBase(ls, baseRows, e.Seed); err != nil {
		return 0, 0, 0, fmt.Errorf("experiments: building write base: %w", err)
	}
	m, err := vm.NewMachine(e.Machine)
	if err != nil {
		return 0, 0, 0, err
	}
	v, err := m.NewVM("write", shares)
	if err != nil {
		return 0, 0, 0, err
	}
	s, err := engine.NewSession(db, v, e.Engine)
	if err != nil {
		return 0, 0, 0, err
	}
	_, before := db.LogStats()
	start := v.Snapshot()
	for _, stmt := range w.Statements {
		if _, err := s.RunStatement(stmt); err != nil {
			return 0, 0, 0, fmt.Errorf("experiments: %s: %w", w.Name, err)
		}
	}
	elapsed = v.ElapsedSince(start)
	_, after := db.LogStats()
	return elapsed, after - before, len(w.Statements), nil
}

// EstimateQuery plans one query under the calibrated P(shares) and
// returns the estimated seconds.
func (e *Env) EstimateQuery(db *engine.Database, query string, shares vm.Shares) (float64, error) {
	p, err := e.Calibrator().Calibrate(context.Background(), shares)
	if err != nil {
		return 0, err
	}
	return estimateUnder(db, query, p)
}

func estimateUnder(db *engine.Database, query string, p optimizer.Params) (float64, error) {
	m, err := vm.NewMachine(vm.DefaultMachineConfig())
	if err != nil {
		return 0, err
	}
	v, err := m.NewVM("planner", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		return 0, err
	}
	s, err := engine.NewSession(db, v, engine.DefaultConfig())
	if err != nil {
		return 0, err
	}
	return s.EstimateSeconds(query, p)
}

// specs builds the paper's two workloads: W1 = n4 copies of Q4 and W2 =
// n13 copies of Q13.
func (e *Env) specs(n4, n13 int) ([]*core.WorkloadSpec, error) {
	q4db, err := e.DB("w-q4")
	if err != nil {
		return nil, err
	}
	q13db, err := e.DB("w-q13")
	if err != nil {
		return nil, err
	}
	return []*core.WorkloadSpec{
		{
			Name:       "W1-Q4",
			Statements: workload.Repeat("w1", workload.Query("Q4"), n4).Statements,
			DB:         q4db,
		},
		{
			Name:       "W2-Q13",
			Statements: workload.Repeat("w2", workload.Query("Q13"), n13).Statements,
			DB:         q13db,
		},
	}, nil
}
