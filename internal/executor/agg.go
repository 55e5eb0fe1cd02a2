package executor

import (
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// aggState accumulates one aggregate for one group.
type aggState struct {
	count  int64
	sumI   int64
	sumF   float64
	anyF   bool
	minMax *types.Value // MIN/MAX: the extreme so far, nil before the first value
}

func (a *aggState) add(spec *plan.AggSpec, v types.Value) {
	if v.IsNull() {
		return
	}
	a.count++
	switch spec.Func {
	case sql.AggCount:
	case sql.AggSum, sql.AggAvg:
		if v.Kind == types.KindFloat {
			a.anyF = true
			a.sumF += v.F
		} else {
			a.sumI += v.I
		}
	case sql.AggMin, sql.AggMax:
		if a.minMax == nil {
			a.minMax = new(types.Value)
			*a.minMax = v
		} else if c, ok := types.Compare(v, *a.minMax); ok &&
			((spec.Func == sql.AggMin && c < 0) || (spec.Func == sql.AggMax && c > 0)) {
			*a.minMax = v
		}
	}
}

func (a *aggState) result(spec *plan.AggSpec) types.Value {
	switch spec.Func {
	case sql.AggCount:
		return types.NewInt(a.count)
	case sql.AggSum:
		if a.count == 0 {
			return types.Null
		}
		if a.anyF || spec.Kind == types.KindFloat {
			return types.NewFloat(a.sumF + float64(a.sumI))
		}
		return types.NewInt(a.sumI)
	case sql.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat((a.sumF + float64(a.sumI)) / float64(a.count))
	case sql.AggMin, sql.AggMax:
		if a.minMax == nil {
			return types.Null
		}
		return *a.minMax
	default:
		return types.Null
	}
}
