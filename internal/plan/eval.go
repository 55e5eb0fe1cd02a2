package plan

import (
	"fmt"

	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// Layout maps relation indexes to their base offset in a flat executor
// row. The executor concatenates the tuples of joined relations into one
// row; Layout records where each relation's columns start. The pseudo
// relations GroupScope and AggScope address post-aggregation rows, which
// are laid out as group keys followed by aggregate results.
type Layout struct {
	Base map[int]int
	// GroupCount is the number of group-by keys in post-aggregation rows.
	GroupCount int
}

// NewLayout creates an empty layout.
func NewLayout() Layout { return Layout{Base: make(map[int]int)} }

// SingleRel returns a layout for a row holding just relation rel at
// offset 0.
func SingleRel(rel int) Layout {
	l := NewLayout()
	l.Base[rel] = 0
	return l
}

// PostAgg returns the layout of post-aggregation rows.
func PostAgg(groupCount int) Layout {
	l := NewLayout()
	l.GroupCount = groupCount
	return l
}

// Offset resolves a column reference to a row index.
func (l Layout) Offset(c *ColRef) (int, error) {
	switch c.Rel {
	case GroupScope:
		return c.Col, nil
	case AggScope:
		return l.GroupCount + c.Col, nil
	default:
		base, ok := l.Base[c.Rel]
		if !ok {
			return 0, fmt.Errorf("plan: relation %d not in row layout", c.Rel)
		}
		return base + c.Col, nil
	}
}

// Row is a flat executor row.
type Row []types.Value

func arith(op sql.BinaryOp, l, r types.Value) (types.Value, error) {
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return types.Null, fmt.Errorf("plan: arithmetic on %s and %s", l.Kind, r.Kind)
	}
	useFloat := l.Kind == types.KindFloat || r.Kind == types.KindFloat
	if useFloat {
		var out float64
		switch op {
		case sql.OpAdd:
			out = lf + rf
		case sql.OpSub:
			out = lf - rf
		case sql.OpMul:
			out = lf * rf
		case sql.OpDiv:
			if rf == 0 {
				return types.Null, fmt.Errorf("plan: division by zero")
			}
			out = lf / rf
		default:
			return types.Null, fmt.Errorf("plan: unknown arithmetic op %v", op)
		}
		return types.NewFloat(out), nil
	}
	li, ri := l.I, r.I
	var out int64
	switch op {
	case sql.OpAdd:
		out = li + ri
	case sql.OpSub:
		out = li - ri
	case sql.OpMul:
		out = li * ri
	case sql.OpDiv:
		if ri == 0 {
			return types.Null, fmt.Errorf("plan: division by zero")
		}
		out = li / ri
	default:
		return types.Null, fmt.Errorf("plan: unknown arithmetic op %v", op)
	}
	// Date arithmetic yields dates for +/- with ints, int otherwise.
	if (l.Kind == types.KindDate) != (r.Kind == types.KindDate) && (op == sql.OpAdd || op == sql.OpSub) {
		return types.NewDate(out), nil
	}
	return types.NewInt(out), nil
}

// Truthy reports whether a filter value passes: NULL and false are both
// rejected.
func Truthy(v types.Value) bool { return !v.IsNull() && v.Bool() }
