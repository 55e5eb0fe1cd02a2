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

// vSort materializes its input from batches and sorts with the exact
// comparator (and therefore the exact comparison count and charges) of the
// tuple executor, then emits batch-sized chunks.
type vSort struct {
	ctx   *Context
	node  *optimizer.Sort
	rows  []plan.Row
	pos   int
	built bool
	err   error

	selBuf []int
	out    plan.Batch
}

func newVSort(n *optimizer.Sort, ctx *Context) (batchIterator, error) {
	return &vSort{ctx: ctx, node: n}, nil
}

func (s *vSort) buildRows() error {
	input, err := vbuild(s.node.Input, s.ctx)
	if err != nil {
		return err
	}
	defer input.Close()
	var bytes int64
	for {
		b, ok, err := input.NextBatch(noBudget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sel := liveSel(b, &s.selBuf)
		// One slab per input batch instead of one allocation per row.
		w := len(b.Cols)
		slab := make([]types.Value, len(sel)*w)
		for k, i := range sel {
			r := plan.Row(slab[k*w : (k+1)*w : (k+1)*w])
			b.ReadRow(i, r)
			s.rows = append(s.rows, r)
			bytes += rowBytes(r)
		}
	}
	keys := s.node.Keys
	var sortErr error
	// The comparator below is the tuple executor's, so the comparison
	// count is identical; the charge (an exact integer per call) is
	// accumulated locally and issued once, which sums to the same total.
	var compares int64
	sort.SliceStable(s.rows, func(i, j int) bool {
		compares++
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
	s.ctx.VM.AccountCPU(2 * OpsPerCompare * float64(compares))
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

func (s *vSort) NextBatch(budget int) (*plan.Batch, bool, error) {
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
	// The per-row emission charge follows the rows actually emitted, so a
	// row budget caps the batch.
	n := min(len(s.rows)-s.pos, plan.BatchSize, budget)
	s.out.Reset(len(s.rows[s.pos]))
	for i := 0; i < n; i++ {
		s.out.AppendRow(s.rows[s.pos+i])
	}
	s.pos += n
	s.ctx.VM.AccountCPU(plan.OpsPerOperator * float64(n))
	return &s.out, true, nil
}

func (s *vSort) Close() {}

// vHashAgg consumes its input in batches, grouping rows and accumulating
// aggregate states exactly as the tuple executor does (hash and operator
// charges issued in bulk per batch), then emits one row per group in
// first-seen order.
type vHashAgg struct {
	ctx    *Context
	node   *optimizer.HashAgg
	groups map[string]*groupEntry
	// intGroups/strGroups/pairGroups are kind-exact fast paths for common
	// key shapes (one KindInt key, one KindString key, two KindString
	// keys); every other shape (including NULLs and mixed kinds) uses the
	// byte-encoded map. Each row's key kinds pick the same map
	// deterministically, so the partitions can never alias one group.
	intGroups  map[int64]*groupEntry
	strGroups  map[string]*groupEntry
	pairGroups map[[2]string]*groupEntry
	// pairList mirrors pairGroups; while the group count stays small a
	// linear scan over one-or-few-character keys beats hashing the pair.
	pairList []*groupEntry
	order    []*groupEntry
	pos      int
	built    bool

	selBuf     []int
	keyScratch []byte
	rowBuf     plan.Row
	out        plan.Batch
}

func newVHashAgg(n *optimizer.HashAgg, ctx *Context) (batchIterator, error) {
	return &vHashAgg{
		ctx: ctx, node: n,
		groups:     make(map[string]*groupEntry),
		intGroups:  make(map[int64]*groupEntry),
		strGroups:  make(map[string]*groupEntry),
		pairGroups: make(map[[2]string]*groupEntry),
	}, nil
}

func (a *vHashAgg) newGroup(keys []types.Value) *groupEntry {
	g := &groupEntry{
		keys:   append([]types.Value(nil), keys...),
		states: make([]aggState, len(a.node.Aggs)),
	}
	a.order = append(a.order, g)
	return g
}

// accumVec folds column i of the input batch (a bare-ColRef aggregate
// argument) into the resolved group states, replicating aggState.add
// exactly. Typed null-free vectors get dedicated loops; everything else
// goes through Vec.Get.
func (a *vHashAgg) accumVec(spec *plan.AggSpec, i int, vec *types.Vec, sel []int, ptrs []*groupEntry) {
	n := len(ptrs)
	if vec.Any == nil && vec.Null == nil && vec.Kind != types.KindNull {
		if spec.Func == sql.AggCount {
			for k := 0; k < n; k++ {
				ptrs[k].states[i].count++
			}
			return
		}
		if spec.Func == sql.AggSum || spec.Func == sql.AggAvg {
			switch vec.Kind {
			case types.KindFloat:
				f := vec.F
				for k := 0; k < n; k++ {
					st := &ptrs[k].states[i]
					st.count++
					st.anyF = true
					st.sumF += f[sel[k]]
				}
				return
			case types.KindInt, types.KindDate, types.KindBool:
				iv := vec.I
				for k := 0; k < n; k++ {
					st := &ptrs[k].states[i]
					st.count++
					st.sumI += iv[sel[k]]
				}
				return
			}
		}
	}
	switch spec.Func {
	case sql.AggCount:
		for k := 0; k < n; k++ {
			if vec.Get(sel[k]).IsNull() {
				continue
			}
			ptrs[k].states[i].count++
		}
	case sql.AggSum, sql.AggAvg:
		for k := 0; k < n; k++ {
			v := vec.Get(sel[k])
			if v.IsNull() {
				continue
			}
			st := &ptrs[k].states[i]
			st.count++
			if v.Kind == types.KindFloat {
				st.anyF = true
				st.sumF += v.F
			} else {
				st.sumI += v.I
			}
		}
	default:
		for k := 0; k < n; k++ {
			ptrs[k].states[i].add(spec, vec.Get(sel[k]))
		}
	}
}

func (a *vHashAgg) buildGroups() error {
	input, err := vbuild(a.node.Input, a.ctx)
	if err != nil {
		return err
	}
	defer input.Close()

	lay := a.node.Input.Layout()
	keyEvs := make([]plan.VecEval, len(a.node.GroupBy))
	for i, g := range a.node.GroupBy {
		keyEvs[i], err = plan.CompileVec(g, lay, a.ctx.VM)
		if err != nil {
			return err
		}
	}
	argEvs := make([]plan.VecEval, len(a.node.Aggs))
	// argOffs[i] >= 0 marks an aggregate whose argument is a bare column
	// reference: its values are read straight from the input batch instead
	// of being gathered (a ColRef evaluation charges no CPU ops, so the
	// skip is charge-neutral).
	argOffs := make([]int, len(a.node.Aggs))
	for i, spec := range a.node.Aggs {
		argOffs[i] = -1
		if spec.Star {
			continue
		}
		if cr, ok := spec.Arg.(*plan.ColRef); ok {
			if off, err := lay.Offset(cr); err == nil {
				argOffs[i] = off
				continue
			}
		}
		argEvs[i], err = plan.CompileVec(spec.Arg, lay, a.ctx.VM)
		if err != nil {
			return err
		}
	}

	// Tell the input which of its output columns the aggregate reads; a
	// join below can then skip materializing the rest (charge-neutral:
	// only physical column fills are elided, never evaluations).
	if p, ok := input.(colPruner); ok {
		set := make(map[int]struct{})
		prunable := true
		for _, g := range a.node.GroupBy {
			if !exprCols(g, lay, set) {
				prunable = false
				break
			}
		}
		for i := range a.node.Aggs {
			if !prunable {
				break
			}
			if a.node.Aggs[i].Star {
				continue
			}
			if !exprCols(a.node.Aggs[i].Arg, lay, set) {
				prunable = false
			}
		}
		if prunable {
			needed := make([]bool, a.node.Input.Width())
			for c := range set {
				if c < len(needed) {
					needed[c] = true
				}
			}
			p.pruneOutput(needed)
		}
	}

	keyCols := make([][]types.Value, len(keyEvs))
	argCols := make([][]types.Value, len(argEvs))
	keyVals := make([]types.Value, len(keyEvs))
	var ptrs []*groupEntry
	perRow := float64(len(keyEvs))*OpsPerHash + float64(len(a.node.Aggs))*plan.OpsPerOperator
	for {
		b, ok, err := input.NextBatch(noBudget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sel := liveSel(b, &a.selBuf)
		n := len(sel)
		for i, ev := range keyEvs {
			keyCols[i] = growVals(keyCols[i], n)
			if err := ev(b, sel, keyCols[i]); err != nil {
				return err
			}
		}
		a.ctx.VM.AccountCPU(perRow * float64(n))
		for i, ev := range argEvs {
			if ev == nil {
				continue
			}
			argCols[i] = growVals(argCols[i], n)
			if err := ev(b, sel, argCols[i]); err != nil {
				return err
			}
		}
		// Resolve each row's group first, then accumulate column-at-a-time:
		// one pass per aggregate keeps the spec dispatch out of the row loop.
		if cap(ptrs) < n {
			ptrs = make([]*groupEntry, n)
		}
		ptrs = ptrs[:n]
		nk := len(keyEvs)
		for k := 0; k < n; k++ {
			var g *groupEntry
			if nk == 1 {
				switch kv := keyCols[0][k]; kv.Kind {
				case types.KindInt:
					g = a.intGroups[kv.I]
					if g == nil {
						g = a.newGroup(keyCols[0][k : k+1])
						a.intGroups[kv.I] = g
					}
				case types.KindString:
					g = a.strGroups[kv.S]
					if g == nil {
						g = a.newGroup(keyCols[0][k : k+1])
						a.strGroups[kv.S] = g
					}
				}
			} else if nk == 2 {
				ka, kb := keyCols[0][k], keyCols[1][k]
				if ka.Kind == types.KindString && kb.Kind == types.KindString {
					if len(a.pairList) <= 16 {
						for _, e := range a.pairList {
							if e.keys[0].S == ka.S && e.keys[1].S == kb.S {
								g = e
								break
							}
						}
					} else {
						g = a.pairGroups[[2]string{ka.S, kb.S}]
					}
					if g == nil {
						keyVals[0], keyVals[1] = ka, kb
						g = a.newGroup(keyVals)
						a.pairGroups[[2]string{ka.S, kb.S}] = g
						a.pairList = append(a.pairList, g)
					}
				}
			}
			if g == nil {
				for i := range keyEvs {
					keyVals[i] = keyCols[i][k]
				}
				// Allocation-free lookup; the string key materializes only
				// when a new group is inserted.
				key := encodeKeyAppend(a.keyScratch[:0], keyVals)
				a.keyScratch = key
				g = a.groups[string(key)]
				if g == nil {
					g = a.newGroup(keyVals)
					a.groups[string(key)] = g
				}
			}
			ptrs[k] = g
		}
		// Accumulate column-at-a-time with the aggregate function hoisted
		// out of the row loop; each arm replicates aggState.add exactly.
		for i := range a.node.Aggs {
			spec := &a.node.Aggs[i]
			if spec.Star {
				for k := 0; k < n; k++ {
					ptrs[k].states[i].count++
				}
				continue
			}
			if off := argOffs[i]; off >= 0 {
				a.accumVec(spec, i, &b.Cols[off], sel, ptrs)
				continue
			}
			col := argCols[i]
			switch spec.Func {
			case sql.AggCount:
				for k := 0; k < n; k++ {
					if col[k].IsNull() {
						continue
					}
					ptrs[k].states[i].count++
				}
			case sql.AggSum, sql.AggAvg:
				for k := 0; k < n; k++ {
					v := col[k]
					if v.IsNull() {
						continue
					}
					st := &ptrs[k].states[i]
					st.count++
					if v.Kind == types.KindFloat {
						st.anyF = true
						st.sumF += v.F
					} else {
						st.sumI += v.I
					}
				}
			default:
				for k := 0; k < n; k++ {
					ptrs[k].states[i].add(spec, col[k])
				}
			}
		}
	}
	// Global aggregation over zero rows still yields one group.
	if len(a.node.GroupBy) == 0 && len(a.order) == 0 {
		g := &groupEntry{states: make([]aggState, len(a.node.Aggs))}
		a.groups[""] = g
		a.order = append(a.order, g)
	}
	a.built = true
	return nil
}

func (a *vHashAgg) NextBatch(budget int) (*plan.Batch, bool, error) {
	if !a.built {
		if err := a.buildGroups(); err != nil {
			return nil, false, err
		}
	}
	if a.pos >= len(a.order) {
		return nil, false, nil
	}
	width := len(a.node.GroupBy) + len(a.node.Aggs)
	a.out.Reset(width)
	// OpsPerTuple is charged per emitted group, so a row budget caps the
	// batch.
	budget = min(budget, plan.BatchSize)
	emitted := 0
	for a.pos < len(a.order) && emitted < budget {
		g := a.order[a.pos]
		a.pos++
		row := append(a.rowBuf[:0], g.keys...)
		for i := range g.states {
			row = append(row, g.states[i].result(&a.node.Aggs[i]))
		}
		a.rowBuf = row
		a.out.AppendRow(row)
		emitted++
	}
	a.ctx.VM.AccountCPU(OpsPerTuple * float64(emitted))
	return &a.out, true, nil
}

func (a *vHashAgg) Close() {}
