package engine

import (
	"fmt"
	"strings"
	"testing"

	"dbvirt/internal/vm"
)

// benchSession builds a session over a moderately sized table for the
// engine micro-benchmarks.
func benchSession(b *testing.B, rows int) *Session {
	b.Helper()
	m := vm.MustMachine(vm.DefaultMachineConfig())
	v, err := m.NewVM("bench", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSession(NewDatabase(), v, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE bt (id INT, grp INT, val FLOAT, pad TEXT)"); err != nil {
		b.Fatal(err)
	}
	loadBT(b, s, rows)
	if _, err := s.Exec("CREATE INDEX bt_id ON bt (id)"); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Exec("ANALYZE bt"); err != nil {
		b.Fatal(err)
	}
	return s
}

// loadBT inserts rows with ids 0..rows-1 into bt, 1000 per statement.
func loadBT(b *testing.B, s *Session, rows int) {
	b.Helper()
	var vals []string
	for i := 0; i < rows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d.5, '%s')", i, i%100, i%1000, strings.Repeat("x", 40)))
		if len(vals) == 1000 || i == rows-1 {
			if _, err := s.Exec("INSERT INTO bt VALUES " + strings.Join(vals, ", ")); err != nil {
				b.Fatal(err)
			}
			vals = vals[:0]
		}
	}
}

func BenchmarkInsertRow(b *testing.B) {
	s := benchSession(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO bt VALUES (%d, 1, 1.0, 'pad')", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeqScanCount(b *testing.B) {
	s := benchSession(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.QueryRows("SELECT count(*) FROM bt WHERE grp < 50"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(20000*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkIndexPointLookup(b *testing.B) {
	s := benchSession(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("SELECT val FROM bt WHERE id = %d", i%20000)
		if _, _, err := s.QueryRows(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdatePoint and BenchmarkDeletePoint are the write-side twins of
// BenchmarkIndexPointLookup: the victim is found through bt_id, so their
// cost must stay within a small factor of the lookup's, whatever the table
// size.
func BenchmarkUpdatePoint(b *testing.B) {
	s := benchSession(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("UPDATE bt SET val = val + 1.0 WHERE id = %d", i%20000)
		if n, err := s.Exec(q); err != nil || n != 1 {
			b.Fatalf("%s: %d rows, %v", q, n, err)
		}
	}
}

func BenchmarkDeletePoint(b *testing.B) {
	const rows = 20000
	s := benchSession(b, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rows == 0 {
			// Every row has been deleted once: refill outside the timer.
			b.StopTimer()
			loadBT(b, s, rows)
			b.StartTimer()
		}
		q := fmt.Sprintf("DELETE FROM bt WHERE id = %d", i%rows)
		if n, err := s.Exec(q); err != nil || n != 1 {
			b.Fatalf("%s: %d rows, %v", q, n, err)
		}
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	s := benchSession(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.QueryRows("SELECT grp, sum(val), count(*) FROM bt GROUP BY grp"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelfHashJoin(b *testing.B) {
	s := benchSession(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.QueryRows(
			"SELECT count(*) FROM bt x, bt y WHERE x.id = y.id AND x.grp = 1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanOnly(b *testing.B) {
	s := benchSession(b, 20000)
	q := "SELECT grp, sum(val) FROM bt WHERE id BETWEEN 100 AND 5000 AND pad LIKE 'x%' GROUP BY grp ORDER BY 2 DESC LIMIT 5"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(q, s.Params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortLargeResult(b *testing.B) {
	s := benchSession(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.QueryRows("SELECT id FROM bt ORDER BY val, id"); err != nil {
			b.Fatal(err)
		}
	}
}
