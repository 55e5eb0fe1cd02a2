package workload

import (
	"fmt"
	"sync"

	"dbvirt/internal/calibration"
	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
)

// Env is one environment to price and run workloads in: a machine model,
// a workload scale, and a shared calibrator. Each workload gets its own VM
// and session; the read-only TPC-H database is built once per (Scale,
// Seed) and shared.
type Env struct {
	Machine vm.MachineConfig
	Engine  engine.Config
	Scale   Scale
	CalCfg  calibration.Config
	Seed    int64
	// Parallelism is handed to the calibrator (grid fan-out) and to every
	// design problem the experiments solve; 0 means runtime.GOMAXPROCS(0).
	// Results are identical at every setting.
	Parallelism int

	mu  sync.Mutex
	dbs map[dbKey]*engine.Database
	cal *calibration.Calibrator
}

// NewEnv creates an environment. With zero values it uses the default
// machine and the paper-regime experiment scale.
func NewEnv(scale Scale, machine vm.MachineConfig) *Env {
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
	return NewEnv(ExperimentScale(), vm.DefaultMachineConfig())
}

// QuickEnv is a scaled-down environment for -short benchmark runs and CI.
func QuickEnv() *Env {
	cfg := vm.DefaultMachineConfig()
	cfg.MemBytes = 16 << 20
	return NewEnv(SmallScale(), cfg)
}

// EnvForScale returns a fresh environment for a named database scale:
// "tiny" (the tiny scale on the default machine), "small" (QuickEnv) or
// "experiment" (DefaultEnv).
func EnvForScale(name string) (*Env, error) {
	switch name {
	case "tiny":
		return NewEnv(TinyScale(), vm.DefaultMachineConfig()), nil
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
	scale Scale
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
	if err := Build(s, e.Scale, e.Seed); err != nil {
		return nil, fmt.Errorf("workload: building %s: %w", name, err)
	}
	e.dbs[key] = db
	return db, nil
}
