package executor

import (
	"math"
	"testing"

	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

func TestAggStateCount(t *testing.T) {
	spec := &plan.AggSpec{Func: sql.AggCount}
	var st aggState
	st.add(spec, types.NewInt(1))
	st.add(spec, types.Null) // ignored
	st.add(spec, types.NewInt(2))
	if got := st.result(spec); got.I != 2 {
		t.Errorf("count = %v", got)
	}
}

func TestAggStateSumIntAndFloat(t *testing.T) {
	specI := &plan.AggSpec{Func: sql.AggSum, Kind: types.KindInt}
	var st aggState
	st.add(specI, types.NewInt(3))
	st.add(specI, types.NewInt(4))
	if got := st.result(specI); got.Kind != types.KindInt || got.I != 7 {
		t.Errorf("int sum = %v", got)
	}
	specF := &plan.AggSpec{Func: sql.AggSum, Kind: types.KindFloat}
	var stf aggState
	stf.add(specF, types.NewFloat(1.5))
	stf.add(specF, types.NewInt(2)) // mixed input still sums
	if got := stf.result(specF); got.Kind != types.KindFloat || got.F != 3.5 {
		t.Errorf("float sum = %v", got)
	}
}

func TestAggStateAvgMinMax(t *testing.T) {
	avg := &plan.AggSpec{Func: sql.AggAvg, Kind: types.KindFloat}
	var st aggState
	for _, v := range []int64{2, 4, 6} {
		st.add(avg, types.NewInt(v))
	}
	if got := st.result(avg); got.F != 4 {
		t.Errorf("avg = %v", got)
	}
	mn := &plan.AggSpec{Func: sql.AggMin, Kind: types.KindString}
	var stm aggState
	stm.add(mn, types.NewString("b"))
	stm.add(mn, types.NewString("a"))
	stm.add(mn, types.NewString("c"))
	if got := stm.result(mn); got.S != "a" {
		t.Errorf("min = %v", got)
	}
	mx := &plan.AggSpec{Func: sql.AggMax, Kind: types.KindString}
	var stx aggState
	stx.add(mx, types.NewString("b"))
	stx.add(mx, types.NewString("c"))
	if got := stx.result(mx); got.S != "c" {
		t.Errorf("max = %v", got)
	}
}

func TestAggStateEmpty(t *testing.T) {
	for _, spec := range []*plan.AggSpec{
		{Func: sql.AggSum, Kind: types.KindInt},
		{Func: sql.AggAvg, Kind: types.KindFloat},
		{Func: sql.AggMin, Kind: types.KindInt},
		{Func: sql.AggMax, Kind: types.KindInt},
	} {
		var st aggState
		if got := st.result(spec); !got.IsNull() {
			t.Errorf("%v over empty = %v, want NULL", spec.Func, got)
		}
	}
	var st aggState
	if got := st.result(&plan.AggSpec{Func: sql.AggCount}); got.I != 0 {
		t.Errorf("count over empty = %v, want 0", got)
	}
}

func TestEncodeKeyDistinguishesValues(t *testing.T) {
	cases := [][2][]types.Value{
		{{types.NewInt(1)}, {types.NewInt(2)}},
		{{types.NewString("ab")}, {types.NewString("ba")}},
		{{types.NewString("a"), types.NewString("b")}, {types.NewString("ab"), types.NewString("")}},
		{{types.Null}, {types.NewInt(0)}},
		{{types.NewBool(true)}, {types.NewBool(false)}},
		// FLOATs closer than 1e-9, and beyond the int64 range.
		{{types.NewFloat(0.1)}, {types.NewFloat(0.1000000001)}},
		{{types.NewFloat(1e19)}, {types.NewFloat(2e19)}},
	}
	for i, c := range cases {
		if encodeKey(c[0]) == encodeKey(c[1]) {
			t.Errorf("case %d: keys collide", i)
		}
	}
	// Identical values produce identical keys.
	a := []types.Value{types.NewInt(5), types.NewString("x")}
	b := []types.Value{types.NewInt(5), types.NewString("x")}
	if encodeKey(a) != encodeKey(b) {
		t.Error("equal values should produce equal keys")
	}
	if encodeKey([]types.Value{types.NewFloat(0)}) != encodeKey([]types.Value{types.NewFloat(math.Copysign(0, -1))}) ||
		encodeKey([]types.Value{types.NewFloat(math.NaN())}) != encodeKey([]types.Value{types.NewFloat(-math.NaN())}) {
		t.Error("-0.0 and 0.0, and any two NaNs, should produce equal keys")
	}
}

func TestJoinKeyNormalization(t *testing.T) {
	// int 2 and float 2.0 must produce the same join key.
	k1, null1 := joinKey([]types.Value{types.NewInt(2)})
	k2, null2 := joinKey([]types.Value{types.NewFloat(2.0)})
	if null1 || null2 {
		t.Fatal("no nulls here")
	}
	if k1 != k2 {
		t.Error("int and equal float should share a join key")
	}
	// Date and int normalize the same way.
	k3, _ := joinKey([]types.Value{types.NewDate(2)})
	if k3 != k1 {
		t.Error("date 2 should match int 2")
	}
	// Non-integral float stays distinct.
	k4, _ := joinKey([]types.Value{types.NewFloat(2.5)})
	if k4 == k1 {
		t.Error("2.5 must not match 2")
	}
	// NULL flags.
	if _, hasNull := joinKey([]types.Value{types.NewInt(1), types.Null}); !hasNull {
		t.Error("NULL key must be flagged")
	}
}

func TestRowBytes(t *testing.T) {
	small := rowBytes(plan.Row{types.NewInt(1)})
	big := rowBytes(plan.Row{types.NewInt(1), types.NewString(string(make([]byte, 1000)))})
	if big <= small || big < 1000 {
		t.Errorf("rowBytes small=%d big=%d", small, big)
	}
}
