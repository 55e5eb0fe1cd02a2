// Benchmarks comparing the vectorized batch executor against the legacy
// tuple-at-a-time executor on the paper's workload shapes. Each pair runs
// the same query on identically built databases; the only difference is
// engine.Config.Executor. Simulated costs are bit-identical (enforced by
// TestVectorizedDifferential); these benchmarks measure host time.
//
// Run with:
//
//	go test -bench 'VectorizedScan|Figure34Pipeline|TPCHScan|ZoneMapScan|TopNJoin|IndexRange' -benchmem
//	go test -short -bench ...   # reduced scale for CI
package dbvirt_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/executor"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

var (
	benchSessMu sync.Mutex
	benchSess   = map[string]*engine.Session{}
)

// benchWorkloadSession returns a cached session with the TPC-H-like
// workload loaded, one per executor mode (and per test scale).
func benchWorkloadSession(b *testing.B, mode executor.Mode) *engine.Session {
	b.Helper()
	scale := workload.SmallScale()
	if testing.Short() {
		scale = workload.TinyScale()
	}
	key := fmt.Sprintf("wl/%d/%d", mode, scale.Orders)
	benchSessMu.Lock()
	defer benchSessMu.Unlock()
	if s, ok := benchSess[key]; ok {
		return s
	}
	cfg := engine.DefaultConfig()
	cfg.Executor = mode
	s := newBenchSession(b, cfg)
	if err := workload.Build(s, scale, 7); err != nil {
		b.Fatal(err)
	}
	benchSess[key] = s
	return s
}

func newBenchSession(b *testing.B, cfg engine.Config) *engine.Session {
	b.Helper()
	m := vm.MustMachine(vm.DefaultMachineConfig())
	v, err := m.NewVM("bench", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := engine.NewSession(engine.NewDatabase(), v, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// runQueryBench measures steady-state execution of one query: one warm-up
// run (buffer pool and block cache hot, as in the paper's measured runs),
// then b.N timed executions.
func runQueryBench(b *testing.B, s *engine.Session, queries ...string) {
	b.Helper()
	var rows int64
	for _, q := range queries {
		n, err := s.RunStatement(q)
		if err != nil {
			b.Fatal(err)
		}
		rows += n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := s.RunStatement(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkVectorizedScan compares the executors on a Q6-shaped selective
// scan of lineitem whose predicates touch only non-indexed columns, so
// both modes plan a full sequential scan — the shape the columnar scan and
// vectorized filter cascade target. (Q6 itself plans as an index scan on
// l_shipdate; BenchmarkIndexRange measures that.)
func BenchmarkVectorizedScan(b *testing.B) {
	const q = "SELECT sum(l_extendedprice * l_discount), count(*) FROM lineitem " +
		"WHERE l_discount BETWEEN 0.02 AND 0.06 AND l_quantity < 24.0"
	for _, m := range []struct {
		name string
		mode executor.Mode
	}{{"legacy", executor.ModeTuple}, {"batch", executor.ModeBatch}} {
		b.Run(m.name, func(b *testing.B) {
			runQueryBench(b, benchWorkloadSession(b, m.mode), q)
		})
	}
}

// BenchmarkTPCHScanPipeline compares the executors on Q1: a full scan of
// lineitem with heavy grouped aggregation — TPC-H's canonical scan query.
func BenchmarkTPCHScanPipeline(b *testing.B) {
	for _, m := range []struct {
		name string
		mode executor.Mode
	}{{"legacy", executor.ModeTuple}, {"batch", executor.ModeBatch}} {
		b.Run(m.name, func(b *testing.B) {
			runQueryBench(b, benchWorkloadSession(b, m.mode), workload.Query("Q1"))
		})
	}
}

// BenchmarkTopNJoin compares the executors on Q3: a three-way join,
// grouped aggregation and ORDER BY ... LIMIT 10. Before the batch executor
// had its own LIMIT the whole tree under it ran row at a time in both
// modes; CI holds the batch side to 1.5x the legacy one.
func BenchmarkTopNJoin(b *testing.B) {
	for _, m := range []struct {
		name string
		mode executor.Mode
	}{{"legacy", executor.ModeTuple}, {"batch", executor.ModeBatch}} {
		b.Run(m.name, func(b *testing.B) {
			runQueryBench(b, benchWorkloadSession(b, m.mode), workload.Query("Q3"))
		})
	}
}

// BenchmarkIndexRange compares the executors on Q6: an index range scan of
// lineitem with a pushed-down filter feeding an aggregate — per-entry heap
// fetches in both modes, a full tuple decode per entry only in the legacy
// one.
func BenchmarkIndexRange(b *testing.B) {
	for _, m := range []struct {
		name string
		mode executor.Mode
	}{{"legacy", executor.ModeTuple}, {"batch", executor.ModeBatch}} {
		b.Run(m.name, func(b *testing.B) {
			runQueryBench(b, benchWorkloadSession(b, m.mode), workload.Query("Q6"))
		})
	}
}

// BenchmarkFigure34Pipeline compares the executors on the paper's Figure
// 3/4 experiment queries run back to back: Q4 (I/O-bound join + aggregate)
// and Q13 (CPU-bound outer join with LIKE over every order comment).
func BenchmarkFigure34Pipeline(b *testing.B) {
	for _, m := range []struct {
		name string
		mode executor.Mode
	}{{"legacy", executor.ModeTuple}, {"batch", executor.ModeBatch}} {
		b.Run(m.name, func(b *testing.B) {
			runQueryBench(b, benchWorkloadSession(b, m.mode),
				workload.Query("Q4"), workload.Query("Q13"))
		})
	}
}

// zoneBenchSession builds the clustered zone-map table (ascending key, so
// every page carries a tight min/max range) once per mode.
func zoneBenchSession(b *testing.B, mode executor.Mode) *engine.Session {
	b.Helper()
	rows := 60000
	if testing.Short() {
		rows = 8000
	}
	key := fmt.Sprintf("zone/%d/%d", mode, rows)
	benchSessMu.Lock()
	defer benchSessMu.Unlock()
	if s, ok := benchSess[key]; ok {
		return s
	}
	cfg := engine.DefaultConfig()
	cfg.Executor = mode
	s := newBenchSession(b, cfg)
	if _, err := s.Exec("CREATE TABLE zb (k INT, v INT, s TEXT)"); err != nil {
		b.Fatal(err)
	}
	pad := strings.Repeat("z", 40)
	var vals []string
	for i := 0; i < rows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, 'row-%06d-%s')", i, i%97, i, pad))
		if len(vals) == 500 {
			if _, err := s.Exec("INSERT INTO zb VALUES " + strings.Join(vals, ", ")); err != nil {
				b.Fatal(err)
			}
			vals = vals[:0]
		}
	}
	if len(vals) > 0 {
		if _, err := s.Exec("INSERT INTO zb VALUES " + strings.Join(vals, ", ")); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Exec("ANALYZE zb"); err != nil {
		b.Fatal(err)
	}
	benchSess[key] = s
	return s
}

// BenchmarkZoneMapScan scans the clustered table with a narrow key range:
// zone maps let the batch executor skip the per-row work of almost every
// page (executor.batch.pages_skipped counts them), while the legacy
// executor filters row by row.
func BenchmarkZoneMapScan(b *testing.B) {
	const q = "SELECT count(*), sum(v) FROM zb WHERE k >= 1000 AND k < 1400"
	for _, m := range []struct {
		name string
		mode executor.Mode
	}{{"legacy", executor.ModeTuple}, {"batch", executor.ModeBatch}} {
		b.Run(m.name, func(b *testing.B) {
			runQueryBench(b, zoneBenchSession(b, m.mode), q)
		})
	}
}
