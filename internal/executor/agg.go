package executor

import (
	"fmt"
	"sort"

	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
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

// hashAggIter consumes its entire input, grouping rows by the group-by
// keys, then emits one row per group: keys followed by aggregate results.
type hashAggIter struct {
	ctx    *Context
	node   *optimizer.HashAgg
	groups map[string]*groupEntry
	order  []string // deterministic emission order (first-seen)
	pos    int
	built  bool
}

type groupEntry struct {
	keys   []types.Value
	states []aggState
}

func newHashAggIter(n *optimizer.HashAgg, ctx *Context) (iterator, error) {
	return &hashAggIter{ctx: ctx, node: n, groups: make(map[string]*groupEntry)}, nil
}

func (a *hashAggIter) buildGroups() error {
	input, err := build(a.node.Input, a.ctx)
	if err != nil {
		return err
	}
	defer input.Close()

	lay := a.node.Input.Layout()
	keyEvs := make([]plan.Evaluator, len(a.node.GroupBy))
	for i, g := range a.node.GroupBy {
		keyEvs[i], err = plan.Compile(g, lay, a.ctx.VM)
		if err != nil {
			return err
		}
	}
	argEvs := make([]plan.Evaluator, len(a.node.Aggs))
	for i, spec := range a.node.Aggs {
		if spec.Star {
			continue
		}
		argEvs[i], err = plan.Compile(spec.Arg, lay, a.ctx.VM)
		if err != nil {
			return err
		}
	}

	keyVals := make([]types.Value, len(keyEvs))
	for {
		row, ok, err := input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i, ev := range keyEvs {
			v, err := ev(row)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		a.ctx.VM.AccountCPU(float64(len(keyEvs))*OpsPerHash + float64(len(a.node.Aggs))*plan.OpsPerOperator)
		key := encodeKey(keyVals)
		g, ok := a.groups[key]
		if !ok {
			g = &groupEntry{
				keys:   append([]types.Value(nil), keyVals...),
				states: make([]aggState, len(a.node.Aggs)),
			}
			a.groups[key] = g
			a.order = append(a.order, key)
		}
		for i := range a.node.Aggs {
			spec := &a.node.Aggs[i]
			if spec.Star {
				g.states[i].count++
				continue
			}
			v, err := argEvs[i](row)
			if err != nil {
				return err
			}
			g.states[i].add(spec, v)
		}
	}
	// Global aggregation over zero rows still yields one group.
	if len(a.node.GroupBy) == 0 && len(a.groups) == 0 {
		key := ""
		a.groups[key] = &groupEntry{states: make([]aggState, len(a.node.Aggs))}
		a.order = append(a.order, key)
	}
	a.built = true
	return nil
}

func (a *hashAggIter) Next() (plan.Row, bool, error) {
	if !a.built {
		if err := a.buildGroups(); err != nil {
			return nil, false, err
		}
	}
	if a.pos >= len(a.order) {
		return nil, false, nil
	}
	g := a.groups[a.order[a.pos]]
	a.pos++
	a.ctx.VM.AccountCPU(OpsPerTuple)
	out := make(plan.Row, 0, len(g.keys)+len(g.states))
	out = append(out, g.keys...)
	for i := range g.states {
		out = append(out, g.states[i].result(&a.node.Aggs[i]))
	}
	return out, true, nil
}

func (a *hashAggIter) Close() {}

// sortIter materializes and sorts its input. Rows are held in host memory;
// when their simulated size exceeds work_mem, external-merge I/O is
// charged to the VM (one write pass plus one read pass).
type sortIter struct {
	ctx   *Context
	node  *optimizer.Sort
	rows  []plan.Row
	pos   int
	built bool
	err   error
}

func newSortIter(n *optimizer.Sort, ctx *Context) (iterator, error) {
	return &sortIter{ctx: ctx, node: n}, nil
}

func (s *sortIter) buildRows() error {
	input, err := build(s.node.Input, s.ctx)
	if err != nil {
		return err
	}
	defer input.Close()
	var bytes int64
	for {
		row, ok, err := input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		r := cloneRow(row)
		s.rows = append(s.rows, r)
		bytes += rowBytes(r)
	}
	keys := s.node.Keys
	var sortErr error
	sort.SliceStable(s.rows, func(i, j int) bool {
		s.ctx.VM.AccountCPU(2 * OpsPerCompare)
		for _, k := range keys {
			a, b := s.rows[i][k.Col], s.rows[j][k.Col]
			// NULLs sort last in ascending order (PostgreSQL default).
			switch {
			case a.IsNull() && b.IsNull():
				continue
			case a.IsNull():
				return k.Desc
			case b.IsNull():
				return !k.Desc
			}
			c, ok := types.Compare(a, b)
			if !ok {
				if sortErr == nil {
					sortErr = fmt.Errorf("executor: cannot compare %s with %s in sort", a.Kind, b.Kind)
				}
				return false
			}
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	if bytes > s.ctx.WorkMemBytes {
		spillPages := int(bytes / storage.PageSize)
		s.ctx.VM.AccountWrite(spillPages)
		s.ctx.VM.AccountSeqRead(spillPages)
	}
	s.built = true
	return nil
}

func (s *sortIter) Next() (plan.Row, bool, error) {
	if s.err != nil {
		return nil, false, s.err
	}
	if !s.built {
		if err := s.buildRows(); err != nil {
			s.err = err
			return nil, false, err
		}
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	s.ctx.VM.AccountCPU(plan.OpsPerOperator)
	return row, true, nil
}

func (s *sortIter) Close() {}
