package plan

import (
	"fmt"

	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// The scalar evaluator: the reference CompileVec and CompilePred are held
// to, value for value and charge for charge (TestCompileVecMatchesCompile).

// Evaluator computes a bound expression over a row. Evaluators follow SQL
// three-valued logic: any NULL yields NULL except where SQL defines
// otherwise (AND/OR short-circuit, IS NULL).
type Evaluator func(Row) (types.Value, error)

// Compile translates a bound expression into an evaluator. Every operator
// node charges OpsPerOperator to the sink when evaluated; LIKE charges its
// length-dependent cost on top.
func Compile(e Expr, lay Layout, sink CPUSink) (Evaluator, error) {
	switch x := e.(type) {
	case *Const:
		v := x.Val
		return func(Row) (types.Value, error) { return v, nil }, nil

	case *ColRef:
		off, err := lay.Offset(x)
		if err != nil {
			return nil, err
		}
		return func(r Row) (types.Value, error) {
			if off >= len(r) {
				return types.Null, fmt.Errorf("plan: row too short: col %d of %d", off, len(r))
			}
			return r[off], nil
		}, nil

	case *Bin:
		l, err := Compile(x.L, lay, sink)
		if err != nil {
			return nil, err
		}
		r, err := Compile(x.R, lay, sink)
		if err != nil {
			return nil, err
		}
		return compileBin(x.Op, l, r, sink)

	case *Not:
		inner, err := Compile(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		return func(row Row) (types.Value, error) {
			sink.AccountCPU(OpsPerOperator)
			v, err := inner(row)
			if err != nil || v.IsNull() {
				return types.Null, err
			}
			return types.NewBool(!v.Bool()), nil
		}, nil

	case *Neg:
		inner, err := Compile(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		return func(row Row) (types.Value, error) {
			sink.AccountCPU(OpsPerOperator)
			v, err := inner(row)
			if err != nil || v.IsNull() {
				return types.Null, err
			}
			switch v.Kind {
			case types.KindInt:
				return types.NewInt(-v.I), nil
			case types.KindFloat:
				return types.NewFloat(-v.F), nil
			default:
				return types.Null, fmt.Errorf("plan: cannot negate %s", v.Kind)
			}
		}, nil

	case *Between:
		ev, err := Compile(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		lo, err := Compile(x.Lo, lay, sink)
		if err != nil {
			return nil, err
		}
		hi, err := Compile(x.Hi, lay, sink)
		if err != nil {
			return nil, err
		}
		return func(row Row) (types.Value, error) {
			sink.AccountCPU(2 * OpsPerOperator)
			v, err := ev(row)
			if err != nil {
				return types.Null, err
			}
			lv, err := lo(row)
			if err != nil {
				return types.Null, err
			}
			hv, err := hi(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return types.Null, nil
			}
			c1, ok1 := types.Compare(v, lv)
			c2, ok2 := types.Compare(v, hv)
			if !ok1 || !ok2 {
				return types.Null, fmt.Errorf("plan: BETWEEN on incompatible types")
			}
			res := c1 >= 0 && c2 <= 0
			if x.NotB {
				res = !res
			}
			return types.NewBool(res), nil
		}, nil

	case *In:
		ev, err := Compile(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		list := make([]Evaluator, len(x.List))
		for i, le := range x.List {
			list[i], err = Compile(le, lay, sink)
			if err != nil {
				return nil, err
			}
		}
		return func(row Row) (types.Value, error) {
			sink.AccountCPU(float64(len(list)) * OpsPerOperator)
			v, err := ev(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			sawNull := false
			found := false
			for _, le := range list {
				lv, err := le(row)
				if err != nil {
					return types.Null, err
				}
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
				return types.NewBool(!x.NotI), nil
			case sawNull:
				return types.Null, nil
			default:
				return types.NewBool(x.NotI), nil
			}
		}, nil

	case *Like:
		ev, err := Compile(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		pattern := x.Pattern
		return func(row Row) (types.Value, error) {
			v, err := ev(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			if v.Kind != types.KindString {
				return types.Null, fmt.Errorf("plan: LIKE on %s", v.Kind)
			}
			sink.AccountCPU(types.LikeCostOps(len(v.S)))
			res := types.MatchLike(v.S, pattern)
			if x.NotL {
				res = !res
			}
			return types.NewBool(res), nil
		}, nil

	case *IsNull:
		ev, err := Compile(x.E, lay, sink)
		if err != nil {
			return nil, err
		}
		return func(row Row) (types.Value, error) {
			sink.AccountCPU(OpsPerOperator)
			v, err := ev(row)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(v.IsNull() != x.NotN), nil
		}, nil

	default:
		return nil, fmt.Errorf("plan: cannot compile %T", e)
	}
}

func compileBin(op sql.BinaryOp, l, r Evaluator, sink CPUSink) (Evaluator, error) {
	switch op {
	case sql.OpAnd:
		return func(row Row) (types.Value, error) {
			sink.AccountCPU(OpsPerOperator)
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			if !lv.IsNull() && !lv.Bool() {
				return types.NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			if !rv.IsNull() && !rv.Bool() {
				return types.NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(true), nil
		}, nil

	case sql.OpOr:
		return func(row Row) (types.Value, error) {
			sink.AccountCPU(OpsPerOperator)
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			if !lv.IsNull() && lv.Bool() {
				return types.NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			if !rv.IsNull() && rv.Bool() {
				return types.NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(false), nil
		}, nil
	}

	if op.Comparison() {
		return func(row Row) (types.Value, error) {
			sink.AccountCPU(OpsPerOperator)
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			c, ok := types.Compare(lv, rv)
			if !ok {
				return types.Null, fmt.Errorf("plan: cannot compare %s with %s", lv.Kind, rv.Kind)
			}
			res := cmpOpRes(op, c)
			return types.NewBool(res), nil
		}, nil
	}

	// Arithmetic.
	return func(row Row) (types.Value, error) {
		sink.AccountCPU(OpsPerOperator)
		lv, err := l(row)
		if err != nil {
			return types.Null, err
		}
		rv, err := r(row)
		if err != nil {
			return types.Null, err
		}
		if lv.IsNull() || rv.IsNull() {
			return types.Null, nil
		}
		return arith(op, lv, rv)
	}, nil
}
