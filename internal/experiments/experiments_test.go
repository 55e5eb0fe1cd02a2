package experiments

import (
	"strings"
	"testing"

	"dbvirt/internal/workload"
)

// The shape tests read their rows from the quick-scale paper record that
// TestPaperGolden pins, and assert the paper's qualitative shapes, not
// absolute numbers.

func paperRows[R any](t *testing.T, name string) R {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harness tests are not short")
	}
	rows, _ := record(t)
	return rows[name].(R)
}

func TestFigure3Shape(t *testing.T) {
	all := paperRows[[]Fig3Row](t, "figure3")
	var rows []Fig3Row
	for _, r := range all {
		if r.MemShare == 0.5 {
			rows = append(rows, r)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("rows at memory 50%% = %d", len(rows))
	}
	// cpu_tuple_cost decreases monotonically with the CPU share and the
	// 25%/75% ratio is super-linear (> 3) due to scheduler overhead.
	if !(rows[0].CPUTupleCost > rows[1].CPUTupleCost && rows[1].CPUTupleCost > rows[2].CPUTupleCost) {
		t.Errorf("cpu_tuple_cost not monotone: %v %v %v",
			rows[0].CPUTupleCost, rows[1].CPUTupleCost, rows[2].CPUTupleCost)
	}
	if ratio := rows[0].CPUTupleCost / rows[2].CPUTupleCost; ratio < 3 {
		t.Errorf("25%%/75%% ratio = %.2f, want > 3 (super-linear)", ratio)
	}
	// Each row carries the whole calibrated parameter set it reports
	// from (paper.json pins it).
	for _, r := range all {
		if r.Params.CPUTupleCost != r.CPUTupleCost || r.Params.SeqPageCost <= 0 {
			t.Errorf("row at cpu %.2f: params %+v do not match cpu_tuple_cost %v", r.CPUShare, r.Params, r.CPUTupleCost)
		}
	}
	out := FormatFigure3(all)
	if !strings.Contains(out, "cpu_tuple_cost") {
		t.Error("format output missing header")
	}
}

func TestFigure4Shape(t *testing.T) {
	res := paperRows[*Fig4Result](t, "figure4")
	// Q4 (I/O-bound) is nearly flat: within 15% of its 50% value at both
	// extremes, in estimate and measurement.
	for i := range res.Rows {
		for _, v := range []float64{res.NormEstQ4[i], res.NormActQ4[i]} {
			if v < 0.85 || v > 1.15 {
				t.Errorf("Q4 should be flat, point %d = %.3f", i, v)
			}
		}
	}
	// Q13 (CPU-bound) slows at 25% and speeds up at 75% substantially.
	if res.NormActQ13[0] < 1.8 {
		t.Errorf("Q13 actual at 25%% = %.2f, want > 1.8", res.NormActQ13[0])
	}
	if res.NormActQ13[2] > 0.7 {
		t.Errorf("Q13 actual at 75%% = %.2f, want < 0.7", res.NormActQ13[2])
	}
	if res.NormEstQ13[0] < 1.5 || res.NormEstQ13[2] > 0.8 {
		t.Errorf("Q13 estimates should track: %.2f / %.2f", res.NormEstQ13[0], res.NormEstQ13[2])
	}
	// Estimates rank allocations in the same order as measurements.
	for i := 1; i < len(res.Rows); i++ {
		if (res.NormEstQ13[i] < res.NormEstQ13[i-1]) != (res.NormActQ13[i] < res.NormActQ13[i-1]) {
			t.Errorf("estimate/actual ranking disagree for Q13 between points %d and %d", i-1, i)
		}
	}
	if !strings.Contains(FormatFigure4(res), "Figure 4") {
		t.Error("format output missing header")
	}
}

func TestFigure5Shape(t *testing.T) {
	res := paperRows[*Fig5Result](t, "figure5")
	// The search must give W2 (Q13) more CPU than W1 (Q4).
	if res.ChosenAllocation[1].CPU <= res.ChosenAllocation[0].CPU {
		t.Fatalf("search should favor the CPU-bound workload: %v", res.ChosenAllocation)
	}
	gain, loss := res.Improvement()
	if gain < 0.2 {
		t.Errorf("W2 improvement = %.0f%%, want >= 20%% (paper: ~30%%)", gain*100)
	}
	if loss > 0.15 {
		t.Errorf("W1 degradation = %.0f%%, want <= 15%% (paper: not significant)", loss*100)
	}
	if !strings.Contains(FormatFigure5(res), "Figure 5") {
		t.Error("format output missing header")
	}
}

func TestAblationSearchShape(t *testing.T) {
	rows := paperRows[[]SearchRow](t, "search")
	byName := map[string]SearchRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	// DP and exhaustive agree (both exact).
	if byName["dp"].PredictedTotal != byName["exhaustive"].PredictedTotal {
		t.Errorf("dp %.3f != exhaustive %.3f",
			byName["dp"].PredictedTotal, byName["exhaustive"].PredictedTotal)
	}
	// The searched designs beat the equal split in actual execution.
	if byName["dp"].MeasuredTotal >= byName["equal"].MeasuredTotal {
		t.Errorf("dp measured %.3f should beat equal %.3f",
			byName["dp"].MeasuredTotal, byName["equal"].MeasuredTotal)
	}
	if _, err := AblationSearch(workload.QuickEnv(), 9, 0.25); err == nil {
		t.Error("workload count out of range should error")
	}
}

func TestAblationOverlapShape(t *testing.T) {
	rows := paperRows[[]OverlapRow](t, "overlap")
	serial, full := rows[0], rows[len(rows)-1]
	if serial.Overlap != 0 || full.Overlap != 1 {
		t.Fatalf("overlap sweep should run from 0 to 1: %v", rows)
	}
	// Q4's CPU sensitivity shrinks as overlap grows; at full overlap the
	// query is perfectly flat.
	if serial.Q4Sensitivity <= full.Q4Sensitivity {
		t.Errorf("overlap should hide CPU: %v", rows)
	}
	if full.Q4Sensitivity > 1.02 {
		t.Errorf("full overlap should make Q4 flat, got %.3f", full.Q4Sensitivity)
	}
}

func TestDynamicReconfigImproves(t *testing.T) {
	res := paperRows[*DynamicResult](t, "dynamic")
	if !res.Reconfigured {
		t.Fatal("the phase-2 re-solve did not move the shares")
	}
	if res.DynamicTotal >= res.StaticTotal {
		t.Errorf("dynamic %.3fs should beat static %.3fs", res.DynamicTotal, res.StaticTotal)
	}
}

func TestSLOForcesShares(t *testing.T) {
	res := paperRows[*SLOResult](t, "slo")
	// Under the SLO, W1's predicted cost must meet (or get much closer
	// to) the target than the unconstrained design.
	if res.W1CostConstrained > res.W1CostUnconstrained {
		t.Errorf("SLO design should not worsen W1: %.3f vs %.3f",
			res.W1CostConstrained, res.W1CostUnconstrained)
	}
}

func TestMemoryDimensionImproves(t *testing.T) {
	res := paperRows[*MemoryDimensionResult](t, "memory")
	// The joint design shifts memory toward the cacheable workload and
	// must win in actual execution.
	if res.Joint[1].Memory <= res.Joint[0].Memory {
		t.Errorf("joint design should favor W2's memory: %v", res.Joint)
	}
	if res.JointMeasured >= res.CPUOnlyMeasured {
		t.Errorf("joint %.3fs should beat cpu-only %.3fs", res.JointMeasured, res.CPUOnlyMeasured)
	}
}

func TestGridAblationShape(t *testing.T) {
	rows := paperRows[[]GridRow](t, "grid")
	if len(rows) < 2 {
		t.Fatal("need at least two grid resolutions")
	}
	if rows[len(rows)-1].MeanRelErr >= rows[0].MeanRelErr {
		t.Errorf("finer grids should reduce error: %v", rows)
	}
}
