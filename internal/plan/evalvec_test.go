package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// vecParityExprs are scalar SELECT expressions over the orders schema
// covering every CompileVec case: comparisons (both null and non-null
// operands), AND/OR short-circuiting, arithmetic, BETWEEN, IN (simple and
// compiled-fallback lists), LIKE, IS NULL, NOT, and negation.
var vecParityExprs = []string{
	"o_orderkey = 7",
	"o_orderkey <> o_custkey",
	"o_total < 500.0",
	"o_total >= 100.0",
	"o_orderkey <= o_custkey",
	"o_orderkey > 3",
	"o_orderkey + o_custkey * 2",
	"o_total / 2.0 - 1.0",
	"-o_orderkey",
	"NOT (o_orderkey = 2)",
	"o_orderkey = 2 AND o_total > 50.0",
	"o_orderkey = 2 OR o_total > 50.0",
	"o_orderkey < 5 AND (o_custkey > 2 OR o_total IS NULL)",
	"o_orderkey BETWEEN 2 AND 8",
	"o_orderkey NOT BETWEEN o_custkey AND 8",
	"o_total BETWEEN 10.0 AND 900.0",
	"o_orderkey IN (1, 3, 5, 7)",
	"o_orderkey NOT IN (2, o_custkey)",
	"o_orderkey IN (o_custkey + 1, 4)", // non-simple list: row fallback
	"o_comment LIKE '%pending%'",
	"o_comment NOT LIKE 'x%'",
	"o_comment LIKE '%a%b%'",
	"o_total IS NULL",
	"o_comment IS NOT NULL",
	"o_orderkey = 1 OR o_comment LIKE '%deposit%'",
}

// vecParityRows builds a row set with NULLs in every column and enough
// variety to take both branches of each predicate.
func vecParityRows() []Row {
	var rows []Row
	comments := []string{
		"pending deposits", "quick brown fox", "", "aXb", "special requests",
		"furiously pending", "deposit accounts move",
	}
	for i := 0; i < 37; i++ {
		r := Row{
			types.NewInt(int64(i % 11)),
			types.NewInt(int64(i % 7)),
			types.NewDate(int64(10000 + i)),
			types.NewString(comments[i%len(comments)]),
			types.NewFloat(float64(i*13%1000) + 0.5),
		}
		if i%5 == 0 {
			r[4] = types.Null
		}
		if i%7 == 3 {
			r[3] = types.Null
		}
		if i%9 == 4 {
			r[0] = types.Null
		}
		rows = append(rows, r)
	}
	return rows
}

// vecValues runs a vectorized evaluator and boxes its result.
func vecValues(ev VecEval, b *Batch, sel []int) ([]types.Value, error) {
	var v types.Vec
	if err := ev(b, sel, &v); err != nil {
		return nil, err
	}
	if v.Len() != len(sel) {
		return nil, fmt.Errorf("result has %d rows for %d selected", v.Len(), len(sel))
	}
	out := make([]types.Value, len(sel))
	for k := range out {
		out[k] = v.Get(k)
	}
	return out, nil
}

// batchOf packs rows into a batch, one Append per value: columns come out
// typed, with a NULL mask where the rows have NULLs.
func batchOf(rows []Row) *Batch {
	var b Batch
	b.Reset(len(rows[0]))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return &b
}

// boxedBatchOf packs rows into a batch of boxed columns.
func boxedBatchOf(rows []Row) *Batch {
	b := &Batch{Cols: make([]types.Vec, len(rows[0])), N: len(rows)}
	for c := range b.Cols {
		b.Cols[c].Any = make([]types.Value, len(rows))
		for i, r := range rows {
			b.Cols[c].Any[i] = r[c]
		}
	}
	return b
}

func allRows(n int) []int {
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// sameErr reports whether two evaluations failed alike: both succeeded, or
// both failed — with the same text, if exact is set.
func sameErr(a, b error, exact bool) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return !exact || a.Error() == b.Error()
}

// checkParity evaluates e on the selected rows of b three ways — Compile
// row by row (the oracle), CompileVec, and CompilePred — and requires the
// same values bit for bit, the same surviving rows, the same error and,
// when nothing failed, the same CPU charged. (A failing batch may have
// charged the rest of its rows first; see VecEval.) The error text must be
// the same too unless e is a tree in which several operators can fail: the
// scalar evaluator then reports the first failing row's innermost failure,
// a vector evaluator the innermost operator's first failing row.
func checkParity(t *testing.T, e Expr, b *Batch, sel []int) {
	t.Helper()
	exact := true
	if bin, ok := e.(*Bin); ok {
		_, lBin := bin.L.(*Bin)
		_, rBin := bin.R.(*Bin)
		exact = !lBin && !rBin
	} else if _, ok := e.(*Not); ok {
		exact = false
	}
	lay := SingleRel(0)
	sSink, vSink, pSink := &countingSink{}, &countingSink{}, &countingSink{}
	ev, err := Compile(e, lay, sSink)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	vev, err := CompileVec(e, lay, vSink)
	if err != nil {
		t.Fatalf("CompileVec: %v", err)
	}
	pred, err := CompilePred(e, lay, pSink)
	if err != nil {
		t.Fatalf("CompilePred: %v", err)
	}

	want := make([]types.Value, len(sel))
	var wantErr error
	var wantSurv []int
	row := make(Row, len(b.Cols))
	for k, i := range sel {
		b.ReadRow(i, row)
		if want[k], wantErr = ev(row); wantErr != nil {
			break
		}
		if Truthy(want[k]) {
			wantSurv = append(wantSurv, i)
		}
	}

	got, gotErr := vecValues(vev, b, sel)
	if !sameErr(wantErr, gotErr, exact) {
		t.Fatalf("scalar error %v, vec error %v", wantErr, gotErr)
	}
	surv, predErr := pred(b, append([]int(nil), sel...))
	if !sameErr(wantErr, predErr, exact) {
		t.Fatalf("scalar error %v, predicate error %v", wantErr, predErr)
	}
	if wantErr != nil {
		return
	}
	for k := range sel {
		if !valueEq(want[k], got[k]) {
			t.Errorf("row %d: scalar %v, vec %v", sel[k], want[k], got[k])
		}
	}
	if fmt.Sprint(surv) != fmt.Sprint(wantSurv) && len(surv)+len(wantSurv) > 0 {
		t.Errorf("predicate keeps rows %v, scalar is true on %v", surv, wantSurv)
	}
	if sSink.ops != vSink.ops || sSink.ops != pSink.ops {
		t.Errorf("charges diverge: scalar %v ops, vec %v, predicate %v", sSink.ops, vSink.ops, pSink.ops)
	}
}

// TestCompileVecMatchesCompile checks that the vectorized evaluator and
// the selection-vector predicates produce the same values AND charge
// bit-identical CPU operations as the scalar evaluator: the SQL corpus over
// typed and boxed batches, then random expressions over random batches of
// every vector shape, each over full, sparse and empty selections.
func TestCompileVecMatchesCompile(t *testing.T) {
	rows := vecParityRows()
	batches := []*Batch{batchOf(rows), boxedBatchOf(rows)}
	sels := map[string][]int{
		"all":    allRows(len(rows)),
		"even":   {0, 2, 4, 6, 8, 10, 12, 20, 30, 36},
		"single": {17},
		"empty":  {},
	}
	for _, src := range vecParityExprs {
		e := mustBind(t, "SELECT "+src+" FROM orders").Select[0].E
		for selName, sel := range sels {
			t.Run(fmt.Sprintf("%s/%s", src, selName), func(t *testing.T) {
				for _, b := range batches {
					checkParity(t, e, b, sel)
				}
			})
		}
	}

	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 3000; i++ {
		shape := vecShape(i % int(numVecShapes))
		n := 1 + rng.Intn(40)
		b := randBatch(rng, n, shape)
		e := randExpr(rng, shape == shapeMixed)
		var sel []int
		switch i % 3 {
		case 0:
			sel = allRows(n)
		case 1:
			for r := 0; r < n; r++ {
				if rng.Intn(3) == 0 {
					sel = append(sel, r)
				}
			}
		}
		t.Run(fmt.Sprintf("random%d/%s", i, e), func(t *testing.T) {
			checkParity(t, e, b, sel)
		})
	}
}

// The columns of a random batch: two of each numeric kind, so that
// column ⋄ column shapes find a partner.
var randKinds = []types.Kind{
	types.KindInt, types.KindInt, types.KindFloat, types.KindFloat,
	types.KindString, types.KindDate, types.KindBool,
}

// The shapes a column vector arrives in.
type vecShape int

const (
	shapeTyped  vecShape = iota // payload lanes, no NULLs
	shapeMasked                 // payload lanes under a NULL mask
	shapeBoxed                  // boxed values of the column's kind, and NULLs
	shapeMixed                  // boxed values of whatever kinds
	numVecShapes
)

// randValue draws a value of the kind, often one where the evaluators could
// part ways: NaN, −0.0, infinities, the ends of int64 (arithmetic wraps
// around), and integers past 2^53 (the conversion to float rounds).
func randValue(rng *rand.Rand, kind types.Kind) types.Value {
	switch kind {
	case types.KindInt:
		pool := []int64{0, 1, -1, 7, 24, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1, -(1 << 53) - 1}
		if rng.Intn(2) == 0 {
			return types.NewInt(pool[rng.Intn(len(pool))])
		}
		return types.NewInt(int64(rng.Intn(50) - 10))
	case types.KindFloat:
		pool := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			0.05, 0.07, 24, 23.999999, 1 << 53, 1<<53 + 2, 1e19, -1e19}
		if rng.Intn(2) == 0 {
			return types.NewFloat(pool[rng.Intn(len(pool))])
		}
		return types.NewFloat(float64(rng.Intn(4000))/100 - 10)
	case types.KindString:
		pool := []string{"", "a", "ab", "aXb", "pending deposits", "special requests", "x%"}
		return types.NewString(pool[rng.Intn(len(pool))])
	case types.KindDate:
		return types.NewDate(int64(9000 + rng.Intn(40)))
	case types.KindBool:
		return types.NewBool(rng.Intn(2) == 0)
	}
	return types.Null
}

// randBatch builds n rows over randKinds with every column in the given
// shape.
func randBatch(rng *rand.Rand, n int, shape vecShape) *Batch {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, len(randKinds))
		for c, kind := range randKinds {
			switch {
			case shape != shapeTyped && rng.Intn(5) == 0:
				rows[i][c] = types.Null
			case shape == shapeMixed && rng.Intn(3) == 0:
				rows[i][c] = randValue(rng, randKinds[rng.Intn(len(randKinds))])
			default:
				rows[i][c] = randValue(rng, kind)
			}
		}
	}
	if shape == shapeTyped || shape == shapeMasked {
		return batchOf(rows)
	}
	return boxedBatchOf(rows)
}

// randExpr draws an expression over randKinds' columns. The kernel shapes
// (column ⋄ literal either way round, column ⋄ column, BETWEEN, LIKE, IS
// NULL) come with operands of every kind, fitting or not, since a kernel
// fails on its own; composite trees, where a vector evaluator may meet
// another row's failure first, are kept well-typed unless mixed is set.
func randExpr(rng *rand.Rand, mixed bool) Expr {
	col := func(kinds ...types.Kind) Expr {
		for {
			c := rng.Intn(len(randKinds))
			for _, k := range kinds {
				if randKinds[c] == k {
					return &ColRef{Rel: 0, Col: c, Kind: k, Name: fmt.Sprintf("c%d", c)}
				}
			}
		}
	}
	anyKind := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindBool}
	lit := func(kinds ...types.Kind) Expr {
		if rng.Intn(12) == 0 {
			return &Const{Val: types.Null}
		}
		return &Const{Val: randValue(rng, kinds[rng.Intn(len(kinds))])}
	}
	cmpOps := []sql.BinaryOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}
	numeric := []types.Kind{types.KindInt, types.KindFloat}
	var arith func(depth int) Expr
	arith = func(depth int) Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(3) == 0 {
				return lit(numeric...)
			}
			kinds := numeric
			if mixed || rng.Intn(4) == 0 {
				kinds = append(kinds[:2:2], types.KindDate) // the date-typing rule
			}
			return col(kinds...)
		}
		ops := []sql.BinaryOp{sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv}
		return &Bin{Op: ops[rng.Intn(len(ops))], L: arith(depth - 1), R: arith(depth - 1), K: types.KindFloat}
	}
	cmp := func() Expr {
		op := cmpOps[rng.Intn(len(cmpOps))]
		kinds := anyKind
		if !mixed && rng.Intn(4) != 0 {
			kinds = numeric // mostly comparable operands
		}
		switch rng.Intn(3) {
		case 0:
			return &Bin{Op: op, L: col(kinds...), R: lit(kinds...), K: types.KindBool}
		case 1:
			return &Bin{Op: op, L: lit(kinds...), R: col(kinds...), K: types.KindBool}
		}
		return &Bin{Op: op, L: col(kinds...), R: col(kinds...), K: types.KindBool}
	}
	switch rng.Intn(8) {
	case 0, 1:
		return cmp()
	case 2:
		kinds := anyKind
		if rng.Intn(3) != 0 {
			kinds = []types.Kind{types.KindInt, types.KindFloat, types.KindDate}
		}
		return &Between{NotB: rng.Intn(2) == 0, E: col(kinds...), Lo: lit(kinds...), Hi: lit(kinds...)}
	case 3:
		patterns := []string{"%", "a%", "%b", "%special%requests%", "a_b", "", "x\\%"}
		kinds := []types.Kind{types.KindString}
		if rng.Intn(6) == 0 {
			kinds = anyKind
		}
		return &Like{NotL: rng.Intn(2) == 0, E: col(kinds...), Pattern: patterns[rng.Intn(len(patterns))]}
	case 4:
		return &IsNull{NotN: rng.Intn(2) == 0, E: col(anyKind...)}
	case 5, 6:
		return arith(3)
	}
	// Logic over comparisons of numeric columns with numeric literals:
	// the value-position loops, which nothing can make fail.
	safe := func() Expr {
		return &Bin{Op: cmpOps[rng.Intn(len(cmpOps))], L: col(numeric...), R: lit(numeric...), K: types.KindBool}
	}
	var e Expr = &Bin{Op: []sql.BinaryOp{sql.OpAnd, sql.OpOr}[rng.Intn(2)], L: safe(), R: safe(), K: types.KindBool}
	if rng.Intn(2) == 0 {
		e = &Not{E: e}
	}
	return e
}

// TestCompileVecReusedAcrossBatches verifies a compiled VecEval can be
// called repeatedly (internal scratch is reused) without corrupting
// results or charges.
func TestCompileVecReusedAcrossBatches(t *testing.T) {
	rows := vecParityRows()
	b := batchOf(rows)
	lay := SingleRel(0)
	q := mustBind(t, "SELECT o_orderkey < 5 AND o_comment LIKE '%pending%' FROM orders")

	vecSink := &countingSink{}
	vev, err := CompileVec(q.Select[0].E, lay, vecSink)
	if err != nil {
		t.Fatal(err)
	}
	scalarSink := &countingSink{}
	ev, err := Compile(q.Select[0].E, lay, scalarSink)
	if err != nil {
		t.Fatal(err)
	}

	sels := [][]int{{0, 1, 2, 3}, {4, 9, 14}, {36}, {5, 6, 7, 8, 9, 10, 11}}
	for pass := 0; pass < 3; pass++ {
		for _, sel := range sels {
			out, err := vecValues(vev, b, sel)
			if err != nil {
				t.Fatal(err)
			}
			for k, i := range sel {
				want, err := ev(rows[i])
				if err != nil {
					t.Fatal(err)
				}
				if !valueEq(want, out[k]) {
					t.Fatalf("pass %d row %d: scalar %v, vec %v", pass, i, want, out[k])
				}
			}
		}
	}
	if scalarSink.ops != vecSink.ops {
		t.Errorf("charges diverge after reuse: scalar %v, vec %v", scalarSink.ops, vecSink.ops)
	}
}

// TestCompileVecTypedColumns runs the parity check against a batch whose
// columns are typed payload lanes (one of them under a NULL mask) — the
// form scans hand to the kernels — on the SQL shapes filters are made of
// and on literals of another numeric kind than their column, where the
// kernel folds the literal once and types.Compare promotes it on every row:
// the two must agree on NaN, on −0.0 and past 2^53, where the promotion
// rounds.
func TestCompileVecTypedColumns(t *testing.T) {
	n := 29
	ints := make([]int64, n)
	nulls := make([]bool, n)
	custs := make([]int64, n)
	dates := make([]int64, n)
	totals := make([]float64, n)
	comments := make([]string, n)
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, 1 << 53, 1<<53 + 2, -(1 << 53), 24, 23.5, math.Inf(1)}
	bigInts := []int64{1 << 53, 1<<53 + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64, 0, 24}
	for i := 0; i < n; i++ {
		ints[i] = int64(i % 9)
		nulls[i] = i%6 == 2
		custs[i] = bigInts[i%len(bigInts)]
		dates[i] = int64(i)
		totals[i] = float64(i) * 3.25
		if i%2 == 1 {
			totals[i] = special[i/2%len(special)]
		}
		comments[i] = fmt.Sprintf("c%d pending", i)
	}
	b := &Batch{
		Cols: []types.Vec{
			{Kind: types.KindInt, I: ints, Null: nulls},
			{Kind: types.KindInt, I: custs},
			{Kind: types.KindDate, I: dates},
			{Kind: types.KindString, S: comments},
			{Kind: types.KindFloat, F: totals},
		},
		N: n,
	}
	sels := [][]int{allRows(n), {1, 3, 4, 8, 9, 15, 27}, {}}

	var exprs []Expr
	for _, src := range []string{
		"o_orderkey = 4 OR o_total > 50.0",
		"o_orderkey IS NULL",
		"o_comment LIKE '%pending'",
		"o_orderkey BETWEEN 2 AND 6",
		"o_total < 24",
		"o_total * (1 - o_total)",
		"o_custkey * o_custkey + o_custkey",
	} {
		exprs = append(exprs, mustBind(t, "SELECT "+src+" FROM orders").Select[0].E)
	}
	total := &ColRef{Rel: 0, Col: 4, Kind: types.KindFloat, Name: "o_total"}
	cust := &ColRef{Rel: 0, Col: 1, Kind: types.KindInt, Name: "o_custkey"}
	for _, op := range []sql.BinaryOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe} {
		for _, k := range bigInts {
			// FLOAT column ⋄ INT literal, both ways round, and BETWEEN.
			exprs = append(exprs,
				&Bin{Op: op, L: total, R: &Const{Val: types.NewInt(k)}, K: types.KindBool},
				&Bin{Op: op, L: &Const{Val: types.NewInt(k)}, R: total, K: types.KindBool})
		}
		for _, f := range special {
			// INT column ⋄ FLOAT literal converts the column side.
			exprs = append(exprs,
				&Bin{Op: op, L: cust, R: &Const{Val: types.NewFloat(f)}, K: types.KindBool},
				&Bin{Op: op, L: total, R: &Const{Val: types.NewFloat(f)}, K: types.KindBool})
		}
	}
	for _, k := range bigInts {
		exprs = append(exprs,
			&Between{E: total, Lo: &Const{Val: types.NewInt(k)}, Hi: &Const{Val: types.NewFloat(1e17)}},
			&Between{NotB: true, E: total, Lo: &Const{Val: types.NewInt(-k)}, Hi: &Const{Val: types.NewInt(k)}})
	}
	for _, e := range exprs {
		for _, sel := range sels {
			t.Run(fmt.Sprintf("%s/%d", e, len(sel)), func(t *testing.T) {
				checkParity(t, e, b, sel)
			})
		}
	}
}

// valueEq compares values bit for bit: NULL-ness, kind, and the kind's
// payload, so that −0.0 differs from 0.0 and a NaN equals itself.
func valueEq(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case types.KindString:
		return a.S == b.S
	case types.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	default:
		return a.I == b.I
	}
}

// TestCompileLikeMatcherEquivalence checks the compile-time-specialized
// LIKE matcher against the reference backtracking matcher on patterns
// exercising every specialization branch (exact, prefix, suffix,
// substring chains, empty segments, overlaps, underscores).
func TestCompileLikeMatcherEquivalence(t *testing.T) {
	patterns := []string{
		"", "%", "%%", "a", "abc", "a%", "%a", "%a%", "a%b", "a%b%c",
		"%special%requests%", "%%a%%b%%", "a%a", "ab%ba", "%abc",
		"abc%", "_", "a_c", "%a_c%", "_%_", "aa%aa",
	}
	inputs := []string{
		"", "a", "b", "aa", "ab", "abc", "abcabc", "aba", "abba",
		"special requests", "xspecialyrequestsz", "requests special",
		"aabaa", "aaaa", "abcba", "cab", "the special x requests y",
	}
	for _, p := range patterns {
		m := compileLikeMatcher(p)
		for _, s := range inputs {
			if got, want := m(s), types.MatchLike(s, p); got != want {
				t.Errorf("pattern %q input %q: compiled=%v reference=%v", p, s, got, want)
			}
		}
	}
}

// q13Like is the pattern TPC-H Q13 excludes order comments by.
const q13Like = "%special%requests%"

// FuzzLikeMatcher checks the compiled matcher against the reference
// backtracking matcher on any haystack and pattern. The seeds put each
// needle across the edges of indexWindowed's windows on haystacks around
// one and two windows long.
func FuzzLikeMatcher(f *testing.F) {
	for _, p := range []string{"", "%", "%%", "a%%b", "_", "%_%", "s_e%", q13Like, "%special%", "%ab%", "%s%"} {
		f.Add("", p)
		f.Add("special requests", p)
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200} {
		filler := strings.Repeat("slyly ", n/6+1)[:n]
		f.Add(filler, q13Like)
		for _, needle := range []string{"special", "requests", "ab"} {
			for _, edge := range []int{likeWindow - 1, likeWindow, likeWindow + 1, 2*likeWindow - len(needle) + 1, 2 * likeWindow} {
				if at := edge - len(needle)/2; at >= 0 && at+len(needle) <= n {
					hay := filler[:at] + needle + filler[at+len(needle):]
					f.Add(hay, "%"+needle+"%")
					f.Add(hay, q13Like)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, s, p string) {
		if got, want := compileLikeMatcher(p)(s), types.MatchLike(s, p); got != want {
			t.Fatalf("%q LIKE %q: compiled %v, reference %v", s, p, got, want)
		}
	})
}

// BenchmarkLikeMatcher times Q13's NOT LIKE test over 24 000 order
// comments of 90 bytes, built like the workload's: random words from the
// same vocabulary, 1% opening with the excluded phrase.
func BenchmarkLikeMatcher(b *testing.B) {
	words := strings.Fields("furiously quickly carefully blithely slyly pending final ironic " +
		"express regular bold even silent deposits packages accounts instructions " +
		"theodolites platelets foxes ideas requests pinto beans")
	rng := rand.New(rand.NewSource(1))
	comments := make([]string, 24000)
	for i := range comments {
		var sb strings.Builder
		if rng.Intn(100) == 0 {
			sb.WriteString("special packages requests ")
		}
		for sb.Len() < 90 {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		comments[i] = strings.TrimSpace(sb.String()[:90])
	}
	match := compileLikeMatcher(q13Like)
	b.ResetTimer()
	kept := 0
	for i := 0; i < b.N; i++ {
		for _, c := range comments {
			if !match(c) {
				kept++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(comments)), "ns/row")
	likeSink = kept
}

var likeSink int
