// Benchmarks comparing the batch executor against the tuple-at-a-time
// reference executor (the "legacy" side, executor.RunReference) on the
// paper's workload shapes. Each pair runs the same plans on the same
// database; simulated costs are bit-identical (enforced by
// TestVectorizedDifferential), so these benchmarks measure host time.
//
// Run with:
//
//	go test -bench 'VectorizedScan|Figure34Pipeline|TPCHScan|ZoneMapScan|TopNJoin|IndexRange' -benchmem ./internal/executor/
//	go test -short -bench ... ./internal/executor/   # reduced scale for CI
package executor_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/executor"
	"dbvirt/internal/obs"
	"dbvirt/internal/workload"
)

// TestMain dumps the process-global metrics registry after the run when
// DBVIRT_METRICS_OUT is set, so CI can archive the counters a benchmark
// sweep produced.
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("DBVIRT_METRICS_OUT"); path != "" {
		if err := obs.WriteMetricsFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

var (
	benchSessMu sync.Mutex
	benchSess   = map[string]*engine.Session{}
)

// executors are the two sides of every benchmark pair.
var executors = []struct {
	name string
	run  runner
}{{"legacy", executor.RunReference}, {"batch", executor.Run}}

// benchSession returns the session cached under key, building it with
// load on first use.
func benchSession(b *testing.B, key string, load func(*engine.Session) error) *engine.Session {
	b.Helper()
	benchSessMu.Lock()
	defer benchSessMu.Unlock()
	if s, ok := benchSess[key]; ok {
		return s
	}
	s := diffSession(b, engine.DefaultConfig())
	if err := load(s); err != nil {
		b.Fatal(err)
	}
	benchSess[key] = s
	return s
}

// benchWorkloadSession returns a cached session with the TPC-H-like
// workload loaded (per test scale).
func benchWorkloadSession(b *testing.B) *engine.Session {
	scale := workload.SmallScale()
	if testing.Short() {
		scale = workload.TinyScale()
	}
	return benchSession(b, fmt.Sprintf("wl/%d", scale.Orders), func(s *engine.Session) error {
		return workload.Build(s, scale, 7)
	})
}

// runQueryBench measures steady-state execution of the queries on each
// executor: one warm-up run (buffer pool and block cache hot, as in the
// paper's measured runs), then b.N timed executions.
func runQueryBench(b *testing.B, s *engine.Session, queries ...string) {
	for _, e := range executors {
		b.Run(e.name, func(b *testing.B) {
			exec := func(q string) int64 {
				pl, err := s.Plan(q, s.Params)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.run(pl, s.ExecContext())
				if err != nil {
					b.Fatal(err)
				}
				defer res.Close()
				var n int64
				for {
					_, ok, err := res.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						return n
					}
					n++
				}
			}
			var rows int64
			for _, q := range queries {
				rows += exec(q)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					exec(q)
				}
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkVectorizedScan compares the executors on a Q6-shaped selective
// scan of lineitem whose predicates touch only non-indexed columns, so
// both plan a full sequential scan — the shape the columnar scan and
// vectorized filter cascade target. (Q6 itself plans as an index scan on
// l_shipdate; BenchmarkIndexRange measures that.)
func BenchmarkVectorizedScan(b *testing.B) {
	runQueryBench(b, benchWorkloadSession(b), "SELECT sum(l_extendedprice * l_discount), count(*) FROM lineitem "+
		"WHERE l_discount BETWEEN 0.02 AND 0.06 AND l_quantity < 24.0")
}

// BenchmarkTPCHScanPipeline compares the executors on Q1: a full scan of
// lineitem with heavy grouped aggregation — TPC-H's canonical scan query.
func BenchmarkTPCHScanPipeline(b *testing.B) {
	runQueryBench(b, benchWorkloadSession(b), workload.Query("Q1"))
}

// BenchmarkTopNJoin compares the executors on Q3: a three-way join,
// grouped aggregation and ORDER BY ... LIMIT 10. CI holds the batch side
// to 1.5x the legacy one, so the tree under the LIMIT must stay on batch
// operators.
func BenchmarkTopNJoin(b *testing.B) {
	runQueryBench(b, benchWorkloadSession(b), workload.Query("Q3"))
}

// BenchmarkIndexRange compares the executors on Q6: an index range scan of
// lineitem with a pushed-down filter feeding an aggregate — per-entry heap
// fetches on both, a full tuple decode per entry only on the legacy one.
func BenchmarkIndexRange(b *testing.B) {
	runQueryBench(b, benchWorkloadSession(b), workload.Query("Q6"))
}

// BenchmarkFigure34Pipeline compares the executors on the paper's Figure
// 3/4 experiment queries run back to back: Q4 (I/O-bound join + aggregate)
// and Q13 (CPU-bound outer join with LIKE over every order comment).
func BenchmarkFigure34Pipeline(b *testing.B) {
	runQueryBench(b, benchWorkloadSession(b), workload.Query("Q4"), workload.Query("Q13"))
}

// BenchmarkZoneMapScan scans zoneSetup's clustered table (ascending key,
// so every page carries a tight min/max range) with a narrow key range:
// zone maps let the batch executor skip the per-row work of almost every
// page (executor.batch.pages_skipped counts them), while the legacy
// executor filters row by row.
func BenchmarkZoneMapScan(b *testing.B) {
	rows := 60000
	if testing.Short() {
		rows = 8000
	}
	s := benchSession(b, fmt.Sprintf("zone/%d", rows), func(s *engine.Session) error {
		zoneSetup(b, s, rows)
		return nil
	})
	runQueryBench(b, s, "SELECT count(*), sum(v) FROM z WHERE k >= 1000 AND k < 1400")
}
