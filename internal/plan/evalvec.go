package plan

import (
	"fmt"
	"strings"

	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// VecEval evaluates a compiled expression over selected rows of a batch:
// it sets *out to a vector of len(sel) rows whose row k is the
// expression's value on physical row sel[k]. sel is ascending and without
// repeats, as every selection vector is. The result is typed when the
// expression ran on typed lanes and boxed when it took the boxed loops;
// its storage belongs to the evaluator (valid until its next call) or
// aliases a column of b, so the caller must not modify it.
//
// VecEval charges the sink exactly the CPU operations the row-at-a-time
// Evaluator would charge across the same rows: per-operator charges are
// issued once per batch as ops × rows, and AND/OR evaluate their right
// operand only on the sub-selection where the left operand did not decide
// the result — the vector form of the scalar short-circuit. Because every
// charge is integer-valued and the VM accumulates exact counters, the
// totals are bit-identical to scalar evaluation. The only divergence is on
// error paths (a failing row may have charged the rest of its batch
// first); errors abort the query, so no cost observation follows them.
type VecEval func(b *Batch, sel []int, out *types.Vec) error

// grow returns a slice of length n, reusing s's capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// boxed returns the rows of v as values: v.Any itself when v is boxed,
// otherwise the typed rows materialized into *buf. It is how the boxed
// loops below read an operand that arrived as a lane.
func boxed(v *types.Vec, buf *[]types.Value) []types.Value {
	if v.Any != nil {
		return v.Any
	}
	out := grow(*buf, v.Len())
	*buf = out
	switch v.Kind {
	case types.KindNull:
	case types.KindFloat:
		for k, f := range v.F {
			out[k] = types.Value{Kind: types.KindFloat, F: f}
		}
	case types.KindString:
		for k, s := range v.S {
			out[k] = types.Value{Kind: types.KindString, S: s}
		}
	default: // Int, Date, Bool
		for k, i := range v.I {
			out[k] = types.Value{Kind: v.Kind, I: i}
		}
	}
	for k, null := range v.Null {
		if null {
			out[k] = types.Null
		}
	}
	return out
}

// constLanes broadcasts a literal to vectors of any length. The lanes only
// ever grow, so past the first batches a literal costs nothing per batch.
type constLanes struct {
	v    types.Value
	i    []int64
	f    []float64
	s    []string
	null []bool
}

func fill[T any](lane []T, n int, v T) []T {
	for len(lane) < n {
		lane = append(lane, v)
	}
	return lane
}

// floats returns n copies of the literal as a float, promoted the way
// arith promotes an integer operand that meets a float.
func (c *constLanes) floats(n int) []float64 {
	f, _ := c.v.AsFloat()
	c.f = fill(c.f, n, f)
	return c.f[:n]
}

// vec sets out to n copies of the literal, typed.
func (c *constLanes) vec(n int, out *types.Vec) {
	switch c.v.Kind {
	case types.KindNull:
		c.null = fill(c.null, n, true)
		*out = types.Vec{Null: c.null[:n]}
	case types.KindFloat:
		*out = types.Vec{Kind: types.KindFloat, F: c.floats(n)}
	case types.KindString:
		c.s = fill(c.s, n, c.v.S)
		*out = types.Vec{Kind: types.KindString, S: c.s[:n]}
	default:
		c.i = fill(c.i, n, c.v.I)
		*out = types.Vec{Kind: c.v.Kind, I: c.i[:n]}
	}
}

// CompileVec translates a bound expression into a vectorized evaluator
// with the same semantics and CPU charges as Compile. Column references,
// literals and + − × over them run on typed lanes; every other operator,
// and arithmetic whose operands arrive boxed, NULL-masked or in kinds that
// differ, runs the boxed loop that mirrors the scalar evaluator.
func CompileVec(e Expr, lay Layout, sink CPUSink) (VecEval, error) {
	switch x := e.(type) {
	case *Const:
		c := &constLanes{v: x.Val}
		return func(_ *Batch, sel []int, out *types.Vec) error {
			c.vec(len(sel), out)
			return nil
		}, nil

	case *ColRef:
		off, err := lay.Offset(x)
		if err != nil {
			return nil, err
		}
		var own types.Vec
		return func(b *Batch, sel []int, out *types.Vec) error {
			if off >= len(b.Cols) {
				return fmt.Errorf("plan: row too short: col %d of %d", off, len(b.Cols))
			}
			col := &b.Cols[off]
			if len(sel) == col.Len() {
				*out = *col // every row selected: the column is the result
				return nil
			}
			own.Reset()
			own.AppendRows(col, sel)
			*out = own
			return nil
		}, nil

	case *Bin:
		l, err := CompileVec(x.L, lay, sink)
		if err != nil {
			return nil, err
		}
		r, err := CompileVec(x.R, lay, sink)
		if err != nil {
			return nil, err
		}
		switch {
		case x.Op == sql.OpAnd || x.Op == sql.OpOr:
			return compileLogicVec(x.Op, l, r, sink), nil
		case x.Op.Comparison():
			return compileCmpVec(x.Op, l, r, sink), nil
		}
		return compileArithVec(x, l, r, sink), nil

	case *Not:
		inner, err := CompileVec(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		var iv types.Vec
		var ib, ob []types.Value
		return func(b *Batch, sel []int, out *types.Vec) error {
			sink.AccountCPU(OpsPerOperator * float64(len(sel)))
			if err := inner(b, sel, &iv); err != nil {
				return err
			}
			ob = grow(ob, len(sel))
			for k, v := range boxed(&iv, &ib) {
				if v.IsNull() {
					ob[k] = types.Null
				} else {
					ob[k] = types.NewBool(!v.Bool())
				}
			}
			*out = types.Vec{Any: ob}
			return nil
		}, nil

	case *Neg:
		inner, err := CompileVec(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		var iv types.Vec
		var ib, ob []types.Value
		return func(b *Batch, sel []int, out *types.Vec) error {
			sink.AccountCPU(OpsPerOperator * float64(len(sel)))
			if err := inner(b, sel, &iv); err != nil {
				return err
			}
			ob = grow(ob, len(sel))
			for k, v := range boxed(&iv, &ib) {
				switch v.Kind {
				case types.KindNull:
					ob[k] = types.Null
				case types.KindInt:
					ob[k] = types.NewInt(-v.I)
				case types.KindFloat:
					ob[k] = types.NewFloat(-v.F)
				default:
					return fmt.Errorf("plan: cannot negate %s", v.Kind)
				}
			}
			*out = types.Vec{Any: ob}
			return nil
		}, nil

	case *Between:
		ev, err := CompileVec(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		lo, err := CompileVec(x.Lo, lay, sink)
		if err != nil {
			return nil, err
		}
		hi, err := CompileVec(x.Hi, lay, sink)
		if err != nil {
			return nil, err
		}
		notB := x.NotB
		var vv, lv, hv types.Vec
		var vb, lb, hb, ob []types.Value
		return func(b *Batch, sel []int, out *types.Vec) error {
			n := len(sel)
			sink.AccountCPU(2 * OpsPerOperator * float64(n))
			if err := ev(b, sel, &vv); err != nil {
				return err
			}
			if err := lo(b, sel, &lv); err != nil {
				return err
			}
			if err := hi(b, sel, &hv); err != nil {
				return err
			}
			va, la, ha := boxed(&vv, &vb), boxed(&lv, &lb), boxed(&hv, &hb)
			ob = grow(ob, n)
			for k := 0; k < n; k++ {
				if va[k].IsNull() || la[k].IsNull() || ha[k].IsNull() {
					ob[k] = types.Null
					continue
				}
				c1, ok1 := cmpFast(va[k], la[k])
				c2, ok2 := cmpFast(va[k], ha[k])
				if !ok1 || !ok2 {
					return fmt.Errorf("plan: BETWEEN on incompatible types")
				}
				ob[k] = types.NewBool((c1 >= 0 && c2 <= 0) != notB)
			}
			*out = types.Vec{Any: ob}
			return nil
		}, nil

	case *In:
		// Vectorize only when every list element is charge-free (Const or
		// ColRef): the scalar form evaluates list elements lazily, which
		// only matters for charges. Complex lists fall back to the scalar
		// evaluator row by row.
		getters := make([]func(*Batch, int) types.Value, len(x.List))
		offs := make([]int, 0, len(x.List))
		for i, le := range x.List {
			switch y := le.(type) {
			case *Const:
				v := y.Val
				getters[i] = func(*Batch, int) types.Value { return v }
			case *ColRef:
				off, err := lay.Offset(y)
				if err != nil {
					return nil, err
				}
				offs = append(offs, off)
				getters[i] = func(b *Batch, row int) types.Value { return b.Cols[off].Get(row) }
			default:
				return rowFallback(e, lay, sink)
			}
		}
		ev, err := CompileVec(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		notI := x.NotI
		var vv types.Vec
		var vb, ob []types.Value
		return func(b *Batch, sel []int, out *types.Vec) error {
			n := len(sel)
			sink.AccountCPU(float64(len(getters)) * OpsPerOperator * float64(n))
			for _, off := range offs {
				if off >= len(b.Cols) {
					return fmt.Errorf("plan: row too short: col %d of %d", off, len(b.Cols))
				}
			}
			if err := ev(b, sel, &vv); err != nil {
				return err
			}
			va := boxed(&vv, &vb)
			ob = grow(ob, n)
			for k, i := range sel {
				v := va[k]
				if v.IsNull() {
					ob[k] = types.Null
					continue
				}
				sawNull := false
				found := false
				for _, g := range getters {
					lv := g(b, i)
					if lv.IsNull() {
						sawNull = true
						continue
					}
					if types.Equal(v, lv) {
						found = true
						break
					}
				}
				switch {
				case found:
					ob[k] = types.NewBool(!notI)
				case sawNull:
					ob[k] = types.Null
				default:
					ob[k] = types.NewBool(notI)
				}
			}
			*out = types.Vec{Any: ob}
			return nil
		}, nil

	case *Like:
		ev, err := CompileVec(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		match := compileLikeMatcher(x.Pattern)
		notL := x.NotL
		var vv types.Vec
		var vb, ob []types.Value
		return func(b *Batch, sel []int, out *types.Vec) error {
			if err := ev(b, sel, &vv); err != nil {
				return err
			}
			ob = grow(ob, len(sel))
			var ops float64
			for k, v := range boxed(&vv, &vb) {
				if v.IsNull() {
					ob[k] = types.Null
					continue
				}
				if v.Kind != types.KindString {
					sink.AccountCPU(ops)
					return fmt.Errorf("plan: LIKE on %s", v.Kind)
				}
				ops += types.LikeCostOps(len(v.S))
				ob[k] = types.NewBool(match(v.S) != notL)
			}
			sink.AccountCPU(ops)
			*out = types.Vec{Any: ob}
			return nil
		}, nil

	case *IsNull:
		inner, err := CompileVec(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		notN := x.NotN
		var iv types.Vec
		var ib, ob []types.Value
		return func(b *Batch, sel []int, out *types.Vec) error {
			sink.AccountCPU(OpsPerOperator * float64(len(sel)))
			if err := inner(b, sel, &iv); err != nil {
				return err
			}
			ob = grow(ob, len(sel))
			for k, v := range boxed(&iv, &ib) {
				ob[k] = types.NewBool(v.IsNull() != notN)
			}
			*out = types.Vec{Any: ob}
			return nil
		}, nil

	default:
		return nil, fmt.Errorf("plan: cannot compile %T", e)
	}
}

// cmpFast compares two non-NULL values, specializing the same-kind cases
// of types.Compare (identical results; it only skips the generic kind
// dispatch and float promotion).
func cmpFast(a, b types.Value) (int, bool) {
	if a.Kind == b.Kind {
		switch a.Kind {
		case types.KindFloat:
			switch {
			case a.F < b.F:
				return -1, true
			case a.F > b.F:
				return 1, true
			}
			return 0, true
		case types.KindInt, types.KindDate, types.KindBool:
			switch {
			case a.I < b.I:
				return -1, true
			case a.I > b.I:
				return 1, true
			}
			return 0, true
		}
	}
	return types.Compare(a, b)
}

// rowFallback evaluates an expression with the scalar evaluator, one
// selected row at a time; charges are identical by construction.
func rowFallback(e Expr, lay Layout, sink CPUSink) (VecEval, error) {
	ev, err := Compile(e, lay, sink)
	if err != nil {
		return nil, err
	}
	var row Row
	var ob []types.Value
	return func(b *Batch, sel []int, out *types.Vec) error {
		row = grow(row, len(b.Cols))
		ob = grow(ob, len(sel))
		for k, i := range sel {
			b.ReadRow(i, row)
			v, err := ev(row)
			if err != nil {
				return err
			}
			ob[k] = v
		}
		*out = types.Vec{Any: ob}
		return nil
	}, nil
}

// compileLogicVec is AND/OR: the right operand is evaluated only on the
// rows the left operand left undecided.
func compileLogicVec(op sql.BinaryOp, l, r VecEval, sink CPUSink) VecEval {
	// decided is the left value that settles the result on its own:
	// false for AND, true for OR.
	decided := op == sql.OpOr
	var lv, rv types.Vec
	var lb, rb, ob []types.Value
	var subsel, subpos []int
	return func(b *Batch, sel []int, out *types.Vec) error {
		n := len(sel)
		sink.AccountCPU(OpsPerOperator * float64(n))
		if err := l(b, sel, &lv); err != nil {
			return err
		}
		la := boxed(&lv, &lb)
		ob = grow(ob, n)
		*out = types.Vec{Any: ob}
		subsel, subpos = subsel[:0], subpos[:0]
		for k := 0; k < n; k++ {
			if !la[k].IsNull() && la[k].Bool() == decided {
				ob[k] = types.NewBool(decided)
			} else {
				subsel = append(subsel, sel[k])
				subpos = append(subpos, k)
			}
		}
		if len(subsel) == 0 {
			return nil
		}
		if err := r(b, subsel, &rv); err != nil {
			return err
		}
		ra := boxed(&rv, &rb)
		for j, k := range subpos {
			switch {
			case !ra[j].IsNull() && ra[j].Bool() == decided:
				ob[k] = types.NewBool(decided)
			case la[k].IsNull() || ra[j].IsNull():
				ob[k] = types.Null
			default:
				ob[k] = types.NewBool(!decided)
			}
		}
		return nil
	}
}

// compileCmpVec is a comparison in value position (under OR or NOT, or in
// a select list); a comparison that is a conjunct of its own compiles to a
// selection-vector kernel instead (CompilePred).
func compileCmpVec(op sql.BinaryOp, l, r VecEval, sink CPUSink) VecEval {
	var lv, rv types.Vec
	var lb, rb, ob []types.Value
	return func(b *Batch, sel []int, out *types.Vec) error {
		n := len(sel)
		sink.AccountCPU(OpsPerOperator * float64(n))
		if err := l(b, sel, &lv); err != nil {
			return err
		}
		if err := r(b, sel, &rv); err != nil {
			return err
		}
		la, ra := boxed(&lv, &lb), boxed(&rv, &rb)
		ob = grow(ob, n)
		for k := 0; k < n; k++ {
			if la[k].IsNull() || ra[k].IsNull() {
				ob[k] = types.Null
				continue
			}
			c, ok := cmpFast(la[k], ra[k])
			if !ok {
				return fmt.Errorf("plan: cannot compare %s with %s", la[k].Kind, ra[k].Kind)
			}
			ob[k] = types.NewBool(cmpOpRes(op, c))
		}
		*out = types.Vec{Any: ob}
		return nil
	}
}

// arithLanes computes out[k] = l[k] op r[k] over bare payload lanes.
func arithLanes[T int64 | float64](op sql.BinaryOp, out, l, r []T) {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case sql.OpAdd:
		for k := range out {
			out[k] = l[k] + r[k]
		}
	case sql.OpSub:
		for k := range out {
			out[k] = l[k] - r[k]
		}
	case sql.OpMul:
		for k := range out {
			out[k] = l[k] * r[k]
		}
	}
}

// compileArithVec is + − × ÷. When both operands arrive as NULL-free lanes
// of kinds arith combines without a per-row decision — INT with INT, FLOAT
// with FLOAT, or a FLOAT lane with an INT literal, which is promoted once
// as arith promotes it per row — the result is a lane as well (+ − × only;
// ÷ can fail on a row). Everything else runs arith row by row.
func compileArithVec(x *Bin, l, r VecEval, sink CPUSink) VecEval {
	op := x.Op
	lanes := op == sql.OpAdd || op == sql.OpSub || op == sql.OpMul
	var lit [2]*constLanes // the operand's literal, when it is one
	for i, e := range []Expr{x.L, x.R} {
		if c, ok := e.(*Const); ok {
			lit[i] = &constLanes{v: c.Val}
		}
	}
	var lv, rv types.Vec
	var lb, rb, ob []types.Value
	var of []float64
	var oi []int64
	return func(b *Batch, sel []int, out *types.Vec) error {
		n := len(sel)
		sink.AccountCPU(OpsPerOperator * float64(n))
		if err := l(b, sel, &lv); err != nil {
			return err
		}
		if err := r(b, sel, &rv); err != nil {
			return err
		}
		if lanes && lv.Dense() && rv.Dense() {
			var lf, rf []float64
			switch lk, rk := lv.Kind, rv.Kind; {
			case lk == types.KindInt && rk == types.KindInt:
				oi = grow(oi, n)
				arithLanes(op, oi, lv.I, rv.I)
				*out = types.Vec{Kind: types.KindInt, I: oi}
				return nil
			case lk == types.KindFloat && rk == types.KindFloat:
				lf, rf = lv.F, rv.F
			case lk == types.KindFloat && rk == types.KindInt && lit[1] != nil:
				lf, rf = lv.F, lit[1].floats(n)
			case lk == types.KindInt && lit[0] != nil && rk == types.KindFloat:
				lf, rf = lit[0].floats(n), rv.F
			}
			if lf != nil {
				of = grow(of, n)
				arithLanes(op, of, lf, rf)
				*out = types.Vec{Kind: types.KindFloat, F: of}
				return nil
			}
		}
		la, ra := boxed(&lv, &lb), boxed(&rv, &rb)
		ob = grow(ob, n)
		for k := 0; k < n; k++ {
			if la[k].IsNull() || ra[k].IsNull() {
				ob[k] = types.Null
				continue
			}
			v, err := arith(op, la[k], ra[k])
			if err != nil {
				return err
			}
			ob[k] = v
		}
		*out = types.Vec{Any: ob}
		return nil
	}
}

// compileLikeMatcher builds a matcher equivalent to
// types.MatchLike(s, pattern), specialized once at compile time. A
// pattern without '_' wildcards reduces to a prefix check, a suffix
// check, and an ordered chain of substring searches, which run on the
// optimized strings package instead of the general byte-at-a-time
// backtracking matcher. The charge (LikeCostOps per row) is unchanged.
func compileLikeMatcher(pattern string) func(string) bool {
	if strings.ContainsRune(pattern, '_') {
		return func(s string) bool { return types.MatchLike(s, pattern) }
	}
	segs := strings.Split(pattern, "%")
	if len(segs) == 1 {
		return func(s string) bool { return s == pattern }
	}
	first, last := segs[0], segs[len(segs)-1]
	mids := segs[1 : len(segs)-1]
	return func(s string) bool {
		if !strings.HasPrefix(s, first) {
			return false
		}
		s = s[len(first):]
		if len(s) < len(last) || !strings.HasSuffix(s, last) {
			return false
		}
		s = s[:len(s)-len(last)]
		for _, m := range mids {
			if m == "" {
				continue
			}
			idx := strings.Index(s, m)
			if idx < 0 {
				return false
			}
			s = s[idx+len(m):]
		}
		return true
	}
}

// cmpOpRes maps a three-way comparison result to a comparison operator's
// boolean result.
func cmpOpRes(op sql.BinaryOp, c int) bool {
	switch op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	}
	return false
}
