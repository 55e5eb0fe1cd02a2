package optimizer_test

import (
	"fmt"
	"strings"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/executor"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

const accountRows = 20000

var bothModes = []executor.Mode{executor.ModeTuple, executor.ModeBatch}

// writeBaseSession loads the oltp workload's account table, whose heap
// order is its key order, and warms the buffer pool.
func writeBaseSession(t testing.TB) *engine.Session {
	t.Helper()
	m := vm.MustMachine(vm.DefaultMachineConfig())
	v, err := m.NewVM("rank", vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(engine.NewDatabase(), v, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.BuildWriteBase(s, accountRows, 7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.QueryRows("SELECT a_id FROM account"); err != nil {
		t.Fatal(err)
	}
	return s
}

func bind(t testing.TB, s *engine.Session, src string) *plan.Query {
	t.Helper()
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.Bind(sel, s.DB.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// measure executes the plan and returns its rows and simulated seconds.
func measure(t testing.TB, s *engine.Session, pl *optimizer.Plan, mode executor.Mode) ([]plan.Row, float64) {
	t.Helper()
	start := s.VM.Snapshot()
	res, err := executor.Run(pl, &executor.Context{Pool: s.Pool, VM: s.VM, WorkMemBytes: s.Params.WorkMemBytes, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return rows, s.VM.ElapsedSince(start)
}

// checkRange requires n distinct rows, all with a_id >= k in column 0.
func checkRange(t *testing.T, where string, rows []plan.Row, k, n int) {
	t.Helper()
	if len(rows) != n {
		t.Errorf("%s: %d rows, want %d", where, len(rows), n)
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		if r[0].I < int64(k) || seen[r[0].I] {
			t.Errorf("%s: row a_id=%d is a duplicate or fails a_id >= %d", where, r[0].I, k)
		}
		seen[r[0].I] = true
	}
}

// TestLimitRankMatchesMeasured is the estimated-vs-actual check of
// LIMIT-aware path choice: for the oltp range statement over a grid of
// lower bounds and limits, both access paths are built by the package
// constructors, executed, and the order of their fractional costs must be
// the order of the simulated seconds they spend. The one tolerated
// disagreement is the named gap (DESIGN.md §7): index descent is charged
// height × RandomPageCost even when the index is resident, so for bounds
// near the front of the heap the sequential scan is still estimated
// cheaper although the index measures faster.
func TestLimitRankMatchesMeasured(t *testing.T) {
	s := writeBaseSession(t)
	for _, k := range []int{100, 1000, 5000, 9999, 15000, 19900} {
		for _, lim := range []int{1, 10, 1000} {
			where := fmt.Sprintf("a_id >= %d LIMIT %d", k, lim)
			q := bind(t, s, "SELECT a_id, a_bal FROM account WHERE "+where)
			plans, chosen, f, err := optimizer.AccessPathPlans(q, s.Params)
			if err != nil {
				t.Fatal(err)
			}
			if len(plans) != 2 {
				t.Fatalf("%s: %d access paths, want SeqScan and IndexScan", where, len(plans))
			}
			want := lim
			if matches := accountRows - k + 1; matches < want {
				want = matches
			}
			var est, act [2]float64
			for i, pl := range plans {
				in := pl.Root.(*optimizer.Limit).Input.Cost()
				est[i] = in.Fractional(f)
				for _, mode := range bothModes {
					var rows []plan.Row
					rows, act[i] = measure(t, s, pl, mode)
					checkRange(t, fmt.Sprintf("%s path %d mode %v", where, i, mode), rows, k, want)
				}
			}
			if (est[1] < est[0]) != (chosen == 1) {
				t.Errorf("%s: chose path %d, fractional costs %v", where, chosen, est)
			}
			if (est[1] < est[0]) == (act[1] < act[0]) {
				continue
			}
			descent := plans[1].Root.(*optimizer.Limit).Input.Cost().Startup
			if k >= 5000 || chosen != 0 || est[1]-descent >= est[0] {
				t.Errorf("%s: estimated order %v (f=%.3g), measured %v s", where, est, f, act)
			}
		}
	}
	// The oltp statement itself, at bounds the parent commit read
	// sequentially: an index scan that stops after ten entries.
	for _, k := range []int{1000, 5000, 9999} {
		src := fmt.Sprintf("SELECT a_id, a_bal FROM account WHERE a_id >= %d LIMIT 10", k)
		pl, err := s.Plan(src, s.Params)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("[on account using account_pk key >= %d]", k); !strings.Contains(pl.Explain(), want) {
			t.Errorf("%s: want an index scan under the Limit:\n%s", src, pl.Explain())
		}
		if _, secs := measure(t, s, pl, executor.ModeBatch); secs > 0.00002 {
			t.Errorf("%s: spent %.6f simulated s, want <= 0.00002", src, secs)
		}
	}
}

// TestLimitCostFollowsHeapOrder pins what newLimit's discount now rests
// on: a sequential scan's startup is the share of the heap before its
// first match, so a Limit over it is dear when the matches sit behind a
// lower bound and free when an upper bound puts them at the front.
func TestLimitCostFollowsHeapOrder(t *testing.T) {
	s := writeBaseSession(t)
	paths := func(where string) []*optimizer.Plan {
		plans, _, _, err := optimizer.AccessPathPlans(bind(t, s, "SELECT a_id FROM account WHERE "+where+" LIMIT 10"), s.Params)
		if err != nil || len(plans) != 2 {
			t.Fatalf("%s: %d access paths, %v", where, len(plans), err)
		}
		return plans
	}
	behind := paths("a_id >= 5000")
	if seq, idx := behind[0].TotalCost(), behind[1].TotalCost(); seq <= idx {
		t.Errorf("a_id >= 5000: Limit over SeqScan costs %g, over IndexScan %g; want more", seq, idx)
	}
	front := paths("a_id <= 19900")[0].Root.(*optimizer.Limit).Input.Cost()
	if front.Startup != 0 {
		t.Errorf("a_id <= 19900: SeqScan startup %g, want 0 (matches lead the heap)", front.Startup)
	}
	back := paths("a_id >= 19900")[0].Root.(*optimizer.Limit).Input.Cost()
	if back.Startup < 0.99*back.Total {
		t.Errorf("a_id >= 19900: SeqScan startup %g of total %g, want nearly all", back.Startup, back.Total)
	}
}

// TestLimitPipelinedJoin: under a small LIMIT a join that streams — the
// filtered side read by index, the other probed per row — must replace
// the hash join that drains a whole relation before its first row.
func TestLimitPipelinedJoin(t *testing.T) {
	s := writeBaseSession(t)
	q := bind(t, s, "SELECT a.a_id FROM account a, account b WHERE a.a_id = b.a_id AND a.a_id >= 5000 LIMIT 5")
	old, err := optimizer.TotalCostPlan(q, s.Params)
	if err != nil {
		t.Fatal(err)
	}
	now, err := optimizer.Optimize(q, s.Params)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(old.Explain(), "HashJoin") || !strings.Contains(now.Explain(), "IndexNestLoop") {
		t.Fatalf("want HashJoin on Total and IndexNestLoop under the fraction:\n%s\n%s", old.Explain(), now.Explain())
	}
	for _, mode := range bothModes {
		oldRows, oldSecs := measure(t, s, old, mode)
		nowRows, nowSecs := measure(t, s, now, mode)
		checkRange(t, "Total plan", oldRows, 5000, 5)
		checkRange(t, "fraction plan", nowRows, 5000, 5)
		if nowSecs*100 > oldSecs {
			t.Errorf("mode %v: %.6f simulated s, Total-chosen plan %.6f; want >= 100x less", mode, nowSecs, oldSecs)
		}
	}
}
