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
//
// Groups are numbered in first-seen order and allocate nothing of their
// own: group g's key values are row g of the key columns, and its aggregate
// states are the slab entries states[g*na:(g+1)*na].
type vHashAgg struct {
	ctx    *Context
	node   *optimizer.HashAgg
	nk, na int
	keys   []types.Vec
	states []aggState
	ngroup int
	// intGroups/strGroups/pairGroups are kind-exact fast paths for common
	// key shapes (one KindInt key, one KindString key, two KindString
	// keys); every other shape (including NULLs and mixed kinds) uses the
	// byte-encoded map. Each row's key kinds pick the same table
	// deterministically, so the partitions can never alias one group.
	intGroups  intTable
	strGroups  map[string]int32
	pairGroups map[[2]string]int32
	groups     map[string]int32
	// pairList mirrors pairGroups while there are few of them: a linear
	// scan over one-or-few-character keys beats hashing the pair.
	pairList []pairGroup
	pos      int
	built    bool

	selBuf     []int
	keyVals    []types.Value
	keyScratch []byte
	out        plan.Batch
}

type pairGroup struct {
	s0, s1 string
	g      int32
}

func newVHashAgg(n *optimizer.HashAgg, ctx *Context) (batchIterator, error) {
	return &vHashAgg{
		ctx: ctx, node: n, nk: len(n.GroupBy), na: len(n.Aggs),
		strGroups:  make(map[string]int32),
		pairGroups: make(map[[2]string]int32),
		groups:     make(map[string]int32),
		keys:       make([]types.Vec, len(n.GroupBy)),
		keyVals:    make([]types.Value, len(n.GroupBy)),
	}, nil
}

// newGroup appends a group with the given keys and zero states.
func (a *vHashAgg) newGroup(keys ...types.Value) int32 {
	for c, v := range keys {
		a.keys[c].Append(v)
	}
	a.states = extend(a.states, a.na)
	a.ngroup++
	return int32(a.ngroup - 1)
}

func (a *vHashAgg) intGroup(k int64) int32 {
	g := a.intGroups.entry(k, int32(a.ngroup))
	if int(g) == a.ngroup {
		a.newGroup(types.NewInt(k))
	}
	return g
}

func (a *vHashAgg) strGroup(s string) int32 {
	g, ok := a.strGroups[s]
	if !ok {
		g = a.newGroup(types.NewString(s))
		a.strGroups[s] = g
	}
	return g
}

// sameString is a == b with the one-byte case — flags and status codes, the
// usual string group keys — compared inline instead of through memequal.
func sameString(a, b string) bool {
	if len(a) == 1 && len(b) == 1 {
		return a[0] == b[0]
	}
	return a == b
}

func (a *vHashAgg) pairGroup(s0, s1 string) int32 {
	if len(a.pairList) <= 16 {
		for i := range a.pairList {
			if p := &a.pairList[i]; sameString(p.s0, s0) && sameString(p.s1, s1) {
				return p.g
			}
		}
	} else if g, ok := a.pairGroups[[2]string{s0, s1}]; ok {
		return g
	}
	g := a.newGroup(types.NewString(s0), types.NewString(s1))
	a.pairGroups[[2]string{s0, s1}] = g
	if len(a.pairList) <= 16 {
		a.pairList = append(a.pairList, pairGroup{s0, s1, g})
	}
	return g
}

// group resolves one row's key values, of any kinds, to its group.
func (a *vHashAgg) group(kv []types.Value) int32 {
	switch {
	case a.nk == 1 && kv[0].Kind == types.KindInt:
		return a.intGroup(kv[0].I)
	case a.nk == 1 && kv[0].Kind == types.KindString:
		return a.strGroup(kv[0].S)
	case a.nk == 2 && kv[0].Kind == types.KindString && kv[1].Kind == types.KindString:
		return a.pairGroup(kv[0].S, kv[1].S)
	}
	// Allocation-free lookup; the string key materializes only when a new
	// group is inserted.
	a.keyScratch = encodeKeyAppend(a.keyScratch[:0], kv)
	g, ok := a.groups[string(a.keyScratch)]
	if !ok {
		g = a.newGroup(kv...)
		a.groups[string(a.keyScratch)] = g
	}
	return g
}

// resolve finds (or creates) the group of each of the n rows whose key
// values are held, one vector per key, in keys. Key lanes of the fast-path
// shapes are read directly; any other shape goes through group row by row,
// which picks the same table for the same kinds.
func (a *vHashAgg) resolve(keys []types.Vec, n int, gids []int32) {
	switch {
	case a.nk == 0:
		if a.ngroup == 0 {
			a.newGroup()
		}
		clear(gids)
	case a.nk == 1 && keys[0].Dense() && keys[0].Kind == types.KindInt:
		for k, ik := range keys[0].I[:n] {
			gids[k] = a.intGroup(ik)
		}
	case a.nk == 1 && keys[0].Dense() && keys[0].Kind == types.KindString:
		for k, s := range keys[0].S[:n] {
			gids[k] = a.strGroup(s)
		}
	case a.nk == 2 && keys[0].Dense() && keys[0].Kind == types.KindString &&
		keys[1].Dense() && keys[1].Kind == types.KindString:
		s1 := keys[1].S
		for k, s0 := range keys[0].S[:n] {
			gids[k] = a.pairGroup(s0, s1[k])
		}
	default:
		for k := 0; k < n; k++ {
			for c := range keys {
				a.keyVals[c] = keys[c].Get(k)
			}
			gids[k] = a.group(a.keyVals)
		}
	}
}

// accum folds vec, the values of aggregate i's argument on the rows that
// resolved to gids, into the groups' states, replicating aggState.add
// exactly. COUNT, SUM and AVG read a typed vector's lane and NULL mask
// directly; everything else goes through Vec.Get.
func (a *vHashAgg) accum(spec *plan.AggSpec, i int, vec *types.Vec, gids []int32) {
	st, na, nul := a.states, a.na, vec.Null
	sums := spec.Func == sql.AggSum || spec.Func == sql.AggAvg
	switch {
	case vec.Any != nil || vec.Kind == types.KindNull:
	case spec.Func == sql.AggCount:
		for k, g := range gids {
			if nul == nil || !nul[k] {
				st[int(g)*na+i].count++
			}
		}
		return
	case sums && vec.Kind == types.KindFloat:
		f := vec.F
		for k, g := range gids {
			if nul == nil || !nul[k] {
				s := &st[int(g)*na+i]
				s.count++
				s.anyF = true
				s.sumF += f[k]
			}
		}
		return
	case sums && vec.Kind != types.KindString:
		iv := vec.I
		for k, g := range gids {
			if nul == nil || !nul[k] {
				s := &st[int(g)*na+i]
				s.count++
				s.sumI += iv[k]
			}
		}
		return
	}
	for k, g := range gids {
		st[int(g)*na+i].add(spec, vec.Get(k))
	}
}

func (a *vHashAgg) buildGroups() error {
	input, err := vbuild(a.node.Input, a.ctx)
	if err != nil {
		return err
	}
	defer input.Close()

	lay := a.node.Input.Layout()
	keyEvs, err := compileVecs(a.node.GroupBy, lay, a.ctx.VM)
	if err != nil {
		return err
	}
	argEvs := make([]plan.VecEval, a.na)
	for i, spec := range a.node.Aggs {
		if spec.Star {
			continue
		}
		if argEvs[i], err = plan.CompileVec(spec.Arg, lay, a.ctx.VM); err != nil {
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
			prunable = prunable && exprCols(g, lay, set)
		}
		for i := range a.node.Aggs {
			if !a.node.Aggs[i].Star {
				prunable = prunable && exprCols(a.node.Aggs[i].Arg, lay, set)
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

	keyVecs := make([]types.Vec, a.nk)
	var argVec types.Vec
	var gids []int32
	perRow := float64(a.nk)*OpsPerHash + float64(a.na)*plan.OpsPerOperator
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
			if err := ev(b, sel, &keyVecs[i]); err != nil {
				return err
			}
		}
		a.ctx.VM.AccountCPU(perRow * float64(n))
		// Resolve each row's group first, then accumulate column-at-a-time:
		// one pass per aggregate keeps the spec dispatch out of the row loop.
		gids = growSlice(gids, n)
		a.resolve(keyVecs, n, gids)
		for i, ev := range argEvs {
			if ev == nil { // COUNT(*)
				for _, g := range gids {
					a.states[int(g)*a.na+i].count++
				}
				continue
			}
			if err := ev(b, sel, &argVec); err != nil {
				return err
			}
			a.accum(&a.node.Aggs[i], i, &argVec, gids)
		}
	}
	// Global aggregation over zero rows still yields one group.
	if a.nk == 0 && a.ngroup == 0 {
		a.newGroup()
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
	if a.pos >= a.ngroup {
		return nil, false, nil
	}
	a.out.Reset(a.nk + a.na)
	// OpsPerTuple is charged per emitted group, so a row budget caps the
	// batch.
	n := min(a.ngroup-a.pos, plan.BatchSize, budget)
	groups := growSlice(a.selBuf, n)
	for k := range groups {
		groups[k] = a.pos + k
	}
	for c := range a.keys {
		a.out.Cols[c].AppendRows(&a.keys[c], groups)
	}
	for i := range a.node.Aggs {
		for _, g := range groups {
			a.out.Cols[a.nk+i].Append(a.states[g*a.na+i].result(&a.node.Aggs[i]))
		}
	}
	a.out.N = n
	a.pos += n
	a.ctx.VM.AccountCPU(OpsPerTuple * float64(n))
	return &a.out, true, nil
}

func (a *vHashAgg) Close() {}
