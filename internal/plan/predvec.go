package plan

import (
	"fmt"

	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// VecPred is a compiled conjunct in selection-vector form: it narrows sel,
// in place, to the rows on which the conjunct is true — neither false nor
// NULL — and returns the surviving prefix. It charges the sink what
// evaluating the conjunct on every row of sel charges in the scalar
// evaluator, in bulk, exactly like VecEval.
type VecPred func(b *Batch, sel []int) ([]int, error)

// CompilePred compiles one conjunct, once, into a selection-vector
// predicate. The shapes filters are made of — column ⋄ literal (either
// order, numeric literals of another numeric kind included), column ⋄
// column, column BETWEEN literals, column [NOT] LIKE and column IS [NOT]
// NULL — get kernels that read the column's typed payload lane and write
// survivors straight into sel, with no value boxed per row. A column that
// arrives boxed, or in a kind the literal does not fit, runs the same
// comparison through Vec.Get row by row; any other expression is evaluated
// by CompileVec and filtered on its result.
func CompilePred(e Expr, lay Layout, sink CPUSink) (VecPred, error) {
	colOff := func(e Expr) (int, bool) {
		if cr, ok := e.(*ColRef); ok {
			if off, err := lay.Offset(cr); err == nil {
				return off, true
			}
		}
		return 0, false
	}
	switch x := e.(type) {
	case *Bin:
		if !x.Op.Comparison() {
			break
		}
		lOff, lCol := colOff(x.L)
		rOff, rCol := colOff(x.R)
		lc, lLit := x.L.(*Const)
		rc, rLit := x.R.(*Const)
		switch {
		case lCol && rLit:
			return predCmpConst(x.Op, lOff, rc.Val, false, sink), nil
		case lLit && rCol:
			return predCmpConst(x.Op, rOff, lc.Val, true, sink), nil
		case lCol && rCol:
			return predCmpCols(x.Op, lOff, rOff, sink), nil
		}
	case *Between:
		off, isCol := colOff(x.E)
		lo, loLit := x.Lo.(*Const)
		hi, hiLit := x.Hi.(*Const)
		if isCol && loLit && hiLit {
			return predBetween(off, lo.Val, hi.Val, x.NotB, sink), nil
		}
	case *Like:
		if off, ok := colOff(x.E); ok {
			return predLike(off, x.Pattern, x.NotL, sink), nil
		}
	case *IsNull:
		if off, ok := colOff(x.E); ok {
			return predIsNull(off, x.NotN, sink), nil
		}
	}
	ev, err := CompileVec(e, lay, sink)
	if err != nil {
		return nil, err
	}
	var v types.Vec
	var vb []types.Value
	return func(b *Batch, sel []int) ([]int, error) {
		if err := ev(b, sel, &v); err != nil {
			return nil, err
		}
		kept := 0
		for k, val := range boxed(&v, &vb) {
			if Truthy(val) {
				sel[kept] = sel[k]
				kept++
			}
		}
		return sel[:kept], nil
	}, nil
}

// column returns the batch column a kernel reads.
func column(b *Batch, off int) (*types.Vec, error) {
	if off >= len(b.Cols) {
		return nil, fmt.Errorf("plan: row too short: col %d of %d", off, len(b.Cols))
	}
	return &b.Cols[off], nil
}

// lane classes: the payload a typed column of some kind is compared on.
// Kinds of one class other than laneNone compare by their payloads exactly
// as types.Compare orders them; BOOL stands apart because it only compares
// with itself.
const (
	laneNone = iota
	laneInt  // INT, DATE
	laneBool
	laneFloat
	laneString
)

func laneOf(k types.Kind) int {
	switch k {
	case types.KindInt, types.KindDate:
		return laneInt
	case types.KindBool:
		return laneBool
	case types.KindFloat:
		return laneFloat
	case types.KindString:
		return laneString
	}
	return laneNone
}

// cmpWant is a comparison operator as the set of three-way outcomes it
// accepts. The kernels order values with < and > only, so a NaN operand
// compares equal, as in cmpFast.
type cmpWant struct{ lt, eq, gt bool }

func wantOf(op sql.BinaryOp) cmpWant {
	return cmpWant{lt: cmpOpRes(op, -1), eq: cmpOpRes(op, 0), gt: cmpOpRes(op, 1)}
}

type lane interface{ int64 | float64 | string }

// keepIf narrows sel to the rows keep accepts, skipping NULL rows.
func keepIf(sel []int, nul []bool, keep func(i int) bool) []int {
	kept := 0
	for _, i := range sel {
		if (nul == nil || !nul[i]) && keep(i) {
			sel[kept] = i
			kept++
		}
	}
	return sel[:kept]
}

// keepCmpConst narrows sel to the non-NULL rows whose value compares with c
// as w wants.
func keepCmpConst[T lane](sel []int, vals []T, nul []bool, c T, w cmpWant) []int {
	kept := 0
	for _, i := range sel {
		v := vals[i]
		lt, gt := v < c, v > c
		sel[kept] = i
		if ((lt && w.lt) || (gt && w.gt) || (!lt && !gt && w.eq)) && (nul == nil || !nul[i]) {
			kept++
		}
	}
	return sel[:kept]
}

// keepCmpCols is keepCmpConst against a second column.
func keepCmpCols[T lane](sel []int, a, b []T, anul, bnul []bool, w cmpWant) []int {
	kept := 0
	for _, i := range sel {
		lt, gt := a[i] < b[i], a[i] > b[i]
		sel[kept] = i
		if ((lt && w.lt) || (gt && w.gt) || (!lt && !gt && w.eq)) &&
			(anul == nil || !anul[i]) && (bnul == nil || !bnul[i]) {
			kept++
		}
	}
	return sel[:kept]
}

// keepBetween narrows sel to the non-NULL rows inside [lo, hi], or outside
// it when not is set.
func keepBetween[T lane](sel []int, vals []T, nul []bool, lo, hi T, not bool) []int {
	kept := 0
	for _, i := range sel {
		v := vals[i]
		sel[kept] = i
		if (!(v < lo) && !(v > hi)) != not && (nul == nil || !nul[i]) {
			kept++
		}
	}
	return sel[:kept]
}

// litAs folds a literal onto a column's lane exactly as types.Compare
// promotes it against a value of that lane: an INT or DATE literal meeting
// a FLOAT column becomes the float it would be converted to on every row.
// ok=false means no fold is exact and the comparison runs row by row (a
// FLOAT literal against an integer column converts the column side).
func litAs(col int, v types.Value) (i int64, f float64, s string, ok bool) {
	switch lit := laneOf(v.Kind); {
	case col == lit:
		return v.I, v.F, v.S, true
	case col == laneFloat && lit == laneInt:
		return 0, float64(v.I), "", true
	}
	return 0, 0, "", false
}

// predCmpConst is `column op literal`, or `literal op column` when flip is
// set.
func predCmpConst(op sql.BinaryOp, off int, cv types.Value, flip bool, sink CPUSink) VecPred {
	colOp := op
	if flip {
		colOp = op.Flip()
	}
	w := wantOf(colOp)
	return func(b *Batch, sel []int) ([]int, error) {
		sink.AccountCPU(OpsPerOperator * float64(len(sel)))
		col, err := column(b, off)
		if err != nil {
			return nil, err
		}
		if cv.IsNull() {
			return sel[:0], nil
		}
		if col.Any == nil {
			cl := laneOf(col.Kind)
			if ci, cf, cs, ok := litAs(cl, cv); ok {
				switch cl {
				case laneInt, laneBool:
					return keepCmpConst(sel, col.I, col.Null, ci, w), nil
				case laneFloat:
					return keepCmpConst(sel, col.F, col.Null, cf, w), nil
				case laneString:
					return keepCmpConst(sel, col.S, col.Null, cs, w), nil
				}
			}
			if cl == laneInt && cv.Kind == types.KindFloat {
				iv, c := col.I, cv.F
				return keepIf(sel, col.Null, func(i int) bool {
					v := float64(iv[i])
					return (v < c && w.lt) || (v > c && w.gt) || (!(v < c) && !(v > c) && w.eq)
				}), nil
			}
		}
		var cmpErr error
		sel = keepIf(sel, nil, func(i int) bool {
			v := col.Get(i)
			if v.IsNull() || cmpErr != nil {
				return false
			}
			a, b2 := v, cv
			if flip {
				a, b2 = cv, v
			}
			c, ok := cmpFast(a, b2)
			if !ok {
				cmpErr = fmt.Errorf("plan: cannot compare %s with %s", a.Kind, b2.Kind)
			}
			return ok && cmpOpRes(op, c)
		})
		return sel, cmpErr
	}
}

// predCmpCols is `column op column`.
func predCmpCols(op sql.BinaryOp, lOff, rOff int, sink CPUSink) VecPred {
	w := wantOf(op)
	return func(b *Batch, sel []int) ([]int, error) {
		sink.AccountCPU(OpsPerOperator * float64(len(sel)))
		l, err := column(b, lOff)
		if err != nil {
			return nil, err
		}
		r, err := column(b, rOff)
		if err != nil {
			return nil, err
		}
		if cl := laneOf(l.Kind); l.Any == nil && r.Any == nil && cl == laneOf(r.Kind) {
			switch cl {
			case laneInt, laneBool:
				return keepCmpCols(sel, l.I, r.I, l.Null, r.Null, w), nil
			case laneFloat:
				return keepCmpCols(sel, l.F, r.F, l.Null, r.Null, w), nil
			case laneString:
				return keepCmpCols(sel, l.S, r.S, l.Null, r.Null, w), nil
			}
		}
		var cmpErr error
		sel = keepIf(sel, nil, func(i int) bool {
			a, b2 := l.Get(i), r.Get(i)
			if a.IsNull() || b2.IsNull() || cmpErr != nil {
				return false
			}
			c, ok := cmpFast(a, b2)
			if !ok {
				cmpErr = fmt.Errorf("plan: cannot compare %s with %s", a.Kind, b2.Kind)
			}
			return ok && cmpOpRes(op, c)
		})
		return sel, cmpErr
	}
}

// predBetween is `column [NOT] BETWEEN literal AND literal`.
func predBetween(off int, lo, hi types.Value, not bool, sink CPUSink) VecPred {
	return func(b *Batch, sel []int) ([]int, error) {
		sink.AccountCPU(2 * OpsPerOperator * float64(len(sel)))
		col, err := column(b, off)
		if err != nil {
			return nil, err
		}
		if lo.IsNull() || hi.IsNull() {
			return sel[:0], nil
		}
		if col.Any == nil {
			cl := laneOf(col.Kind)
			loI, loF, loS, ok1 := litAs(cl, lo)
			hiI, hiF, hiS, ok2 := litAs(cl, hi)
			if ok1 && ok2 {
				switch cl {
				case laneInt, laneBool:
					return keepBetween(sel, col.I, col.Null, loI, hiI, not), nil
				case laneFloat:
					return keepBetween(sel, col.F, col.Null, loF, hiF, not), nil
				case laneString:
					return keepBetween(sel, col.S, col.Null, loS, hiS, not), nil
				}
			}
		}
		var cmpErr error
		sel = keepIf(sel, nil, func(i int) bool {
			v := col.Get(i)
			if v.IsNull() || cmpErr != nil {
				return false
			}
			c1, ok1 := cmpFast(v, lo)
			c2, ok2 := cmpFast(v, hi)
			if !ok1 || !ok2 {
				cmpErr = fmt.Errorf("plan: BETWEEN on incompatible types")
				return false
			}
			return (c1 >= 0 && c2 <= 0) != not
		})
		return sel, cmpErr
	}
}

// predLike is `column [NOT] LIKE pattern`. A NULL row charges nothing, as
// in the scalar evaluator.
func predLike(off int, pattern string, not bool, sink CPUSink) VecPred {
	match := compileLikeMatcher(pattern)
	return func(b *Batch, sel []int) ([]int, error) {
		col, err := column(b, off)
		if err != nil {
			return nil, err
		}
		var ops float64
		if col.Any == nil && col.Kind == types.KindString {
			strs := col.S
			sel = keepIf(sel, col.Null, func(i int) bool {
				ops += types.LikeCostOps(len(strs[i]))
				return match(strs[i]) != not
			})
			sink.AccountCPU(ops)
			return sel, nil
		}
		var likeErr error
		sel = keepIf(sel, nil, func(i int) bool {
			v := col.Get(i)
			if v.IsNull() || likeErr != nil {
				return false
			}
			if v.Kind != types.KindString {
				likeErr = fmt.Errorf("plan: LIKE on %s", v.Kind)
				return false
			}
			ops += types.LikeCostOps(len(v.S))
			return match(v.S) != not
		})
		sink.AccountCPU(ops)
		return sel, likeErr
	}
}

// predIsNull is `column IS [NOT] NULL`.
func predIsNull(off int, not bool, sink CPUSink) VecPred {
	return func(b *Batch, sel []int) ([]int, error) {
		sink.AccountCPU(OpsPerOperator * float64(len(sel)))
		col, err := column(b, off)
		if err != nil {
			return nil, err
		}
		switch {
		case col.Any != nil:
			vals := col.Any
			return keepIf(sel, nil, func(i int) bool { return vals[i].IsNull() != not }), nil
		case col.Null != nil:
			nul := col.Null
			return keepIf(sel, nil, func(i int) bool { return nul[i] != not }), nil
		case (col.Kind == types.KindNull) != not:
			return sel, nil // all NULL under IS NULL, none under IS NOT NULL
		}
		return sel[:0], nil
	}
}
