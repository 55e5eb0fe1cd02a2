package plan

import (
	"fmt"
	"strings"

	"dbvirt/internal/catalog"
	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// Rel is one relation of a bound query: a base table, or a derived table
// (FROM subquery) whose Sub holds the independently bound inner query and
// whose Table is a synthetic schema-only descriptor.
type Rel struct {
	Idx   int
	Name  string // alias if given, else table name
	Table *catalog.Table
	Sub   *Query // non-nil for derived tables
}

// Conjunct is one AND-factor of a predicate, with the set of relations it
// references (used for predicate pushdown and join-condition matching).
type Conjunct struct {
	E    Expr
	Rels RelSet
}

// AggSpec is one aggregate computed by the query.
type AggSpec struct {
	Func sql.AggFunc
	Star bool
	Arg  Expr // nil when Star
	Kind types.Kind
	Name string
}

// OutputCol is one column of the query result. Hidden columns are added
// for ORDER BY keys that are not in the select list and are stripped
// before returning rows.
type OutputCol struct {
	Name   string
	E      Expr
	Hidden bool
}

// OrderKey sorts the result by output column Col (an index into Select).
type OrderKey struct {
	Col  int
	Desc bool
}

// JoinTree is a fixed join shape, used when the query contains outer
// joins (which the optimizer must not freely reorder).
type JoinTree struct {
	// Leaf relation (nil for internal nodes).
	Rel *Rel
	// Internal node fields.
	Type        sql.JoinType
	Left, Right *JoinTree
	On          []Conjunct
}

// Rels returns the set of base relations under this tree.
func (j *JoinTree) Rels() RelSet {
	if j.Rel != nil {
		return NewRelSet(j.Rel.Idx)
	}
	return j.Left.Rels() | j.Right.Rels()
}

// Query is a bound SELECT, ready for the optimizer.
type Query struct {
	Rels []*Rel
	// Where holds the WHERE conjuncts plus, when all joins are inner, the
	// flattened ON conjuncts. The optimizer is free to place them.
	Where []Conjunct
	// OuterTree is non-nil when the query contains outer joins; the join
	// shape is then fixed and Where conjuncts apply above the tree.
	OuterTree *JoinTree
	// Grouped is true when the query aggregates (GROUP BY or any
	// aggregate function). GroupBy may be empty for a single global group.
	Grouped  bool
	GroupBy  []Expr
	Aggs     []AggSpec
	Having   Expr // post-aggregation scope; nil if absent
	Select   []OutputCol
	OrderBy  []OrderKey
	Limit    *int64
	Distinct bool
}

// binder carries binding state.
type binder struct {
	cat    *catalog.Catalog
	rels   []*Rel
	byName map[string]*Rel
	// params, when non-nil, collects the literals bound in input scope,
	// derived tables' included.
	params *[]Param
}

// Param pairs a literal of a parsed statement with the Const it was bound
// to. A caller that rewrites the literal's value in place (a statement
// template) copies it to the Const instead of binding again.
type Param struct {
	Lit   *sql.Literal
	Const *Const
}

// Bind resolves a parsed SELECT against the catalog.
func Bind(sel *sql.SelectStmt, cat *catalog.Catalog) (*Query, error) {
	return newBinder(cat, nil).bind(sel)
}

// BindParams is Bind that also returns each literal it bound with the
// Const it became.
func BindParams(sel *sql.SelectStmt, cat *catalog.Catalog) (*Query, []Param, error) {
	var params []Param
	q, err := newBinder(cat, &params).bind(sel)
	return q, params, err
}

func newBinder(cat *catalog.Catalog, params *[]Param) *binder {
	return &binder{cat: cat, byName: make(map[string]*Rel), params: params}
}

func (b *binder) bind(sel *sql.SelectStmt) (*Query, error) {
	q := &Query{}

	// FROM: decide between the flat inner-join form and a fixed tree.
	hasOuter := false
	for _, fi := range sel.From {
		if fromHasOuter(fi) {
			hasOuter = true
		}
	}
	if hasOuter {
		if len(sel.From) != 1 {
			return nil, fmt.Errorf("plan: outer joins cannot be mixed with comma-separated FROM items")
		}
		tree, err := b.bindJoinTree(sel.From[0])
		if err != nil {
			return nil, err
		}
		q.OuterTree = tree
	} else {
		for _, fi := range sel.From {
			if err := b.flattenInner(fi, q); err != nil {
				return nil, err
			}
		}
	}
	q.Rels = b.rels
	if len(q.Rels) == 0 {
		return nil, fmt.Errorf("plan: query has no relations")
	}
	if len(q.Rels) > 64 {
		return nil, fmt.Errorf("plan: too many relations (%d > 64)", len(q.Rels))
	}

	// WHERE.
	if sel.Where != nil {
		conjs, err := b.bindConjuncts(sel.Where, "WHERE")
		if err != nil {
			return nil, err
		}
		q.Where = append(q.Where, conjs...)
	}

	// GROUP BY and aggregates.
	for _, ge := range sel.GroupBy {
		e, err := b.bindScalar(ge, "GROUP BY")
		if err != nil {
			return nil, err
		}
		q.GroupBy = append(q.GroupBy, e)
	}
	q.Grouped = len(sel.GroupBy) > 0 || stmtHasAgg(sel)
	if sel.Having != nil && !q.Grouped {
		return nil, fmt.Errorf("plan: HAVING requires aggregation")
	}

	// Select list.
	for _, item := range sel.Items {
		if item.Star {
			if q.Grouped {
				return nil, fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
			}
			for _, rel := range q.Rels {
				for ci, col := range rel.Table.Schema.Cols {
					q.Select = append(q.Select, OutputCol{
						Name: col.Name,
						E:    &ColRef{Rel: rel.Idx, Col: ci, Kind: col.Kind, Name: rel.Name + "." + col.Name},
					})
				}
			}
			continue
		}
		var e Expr
		var err error
		if q.Grouped {
			e, err = b.bindPostAgg(item.Expr, q)
		} else {
			e, err = b.bindNoAgg(item.Expr, "SELECT")
		}
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = displayName(item.Expr)
		}
		q.Select = append(q.Select, OutputCol{Name: name, E: e})
	}

	// HAVING.
	if sel.Having != nil {
		e, err := b.bindPostAgg(sel.Having, q)
		if err != nil {
			return nil, err
		}
		if e.ResultKind() != types.KindBool && e.ResultKind() != types.KindNull {
			return nil, fmt.Errorf("plan: HAVING must be boolean, got %s", e.ResultKind())
		}
		q.Having = e
	}

	// ORDER BY.
	visible := len(q.Select)
	for _, oi := range sel.OrderBy {
		var col int
		switch {
		case oi.Position > 0:
			if oi.Position > visible {
				return nil, fmt.Errorf("plan: ORDER BY position %d out of range", oi.Position)
			}
			col = oi.Position - 1
		default:
			// A bare unqualified name matching a select-list alias orders
			// by that output column (standard SQL alias resolution).
			if cr, ok := oi.Expr.(*sql.ColumnRef); ok && cr.Table == "" {
				aliasCol := -1
				for i, sc := range q.Select {
					if !sc.Hidden && strings.EqualFold(sc.Name, cr.Column) {
						aliasCol = i
						break
					}
				}
				if aliasCol >= 0 {
					q.OrderBy = append(q.OrderBy, OrderKey{Col: aliasCol, Desc: oi.Desc})
					continue
				}
			}
			var e Expr
			var err error
			if q.Grouped {
				e, err = b.bindPostAgg(oi.Expr, q)
			} else {
				e, err = b.bindNoAgg(oi.Expr, "ORDER BY")
			}
			if err != nil {
				return nil, err
			}
			col = -1
			for i, sc := range q.Select {
				if Equal(sc.E, e) {
					col = i
					break
				}
			}
			if col < 0 {
				q.Select = append(q.Select, OutputCol{Name: displayName(oi.Expr), E: e, Hidden: true})
				col = len(q.Select) - 1
			}
		}
		q.OrderBy = append(q.OrderBy, OrderKey{Col: col, Desc: oi.Desc})
	}

	q.Limit = sel.Limit
	q.Distinct = sel.Distinct
	return q, nil
}

// fromHasOuter reports whether a FROM item contains a LEFT join.
func fromHasOuter(fi sql.FromItem) bool {
	j, ok := fi.(*sql.JoinExpr)
	if !ok {
		return false
	}
	return j.Type == sql.LeftJoin || fromHasOuter(j.Left) || fromHasOuter(j.Right)
}

// flattenInner adds the relations of an inner-join-only FROM item and
// pushes its ON conjuncts into q.Where.
func (b *binder) flattenInner(fi sql.FromItem, q *Query) error {
	switch x := fi.(type) {
	case *sql.TableRef:
		_, err := b.addRel(x)
		return err
	case *sql.SubqueryRef:
		_, err := b.addSubqueryRel(x)
		return err
	case *sql.JoinExpr:
		if err := b.flattenInner(x.Left, q); err != nil {
			return err
		}
		if err := b.flattenInner(x.Right, q); err != nil {
			return err
		}
		conjs, err := b.bindConjuncts(x.On, "ON")
		if err != nil {
			return err
		}
		q.Where = append(q.Where, conjs...)
		return nil
	default:
		return fmt.Errorf("plan: unknown FROM item %T", fi)
	}
}

// bindJoinTree binds a FROM item into a fixed join tree.
func (b *binder) bindJoinTree(fi sql.FromItem) (*JoinTree, error) {
	switch x := fi.(type) {
	case *sql.TableRef:
		rel, err := b.addRel(x)
		if err != nil {
			return nil, err
		}
		return &JoinTree{Rel: rel}, nil
	case *sql.SubqueryRef:
		rel, err := b.addSubqueryRel(x)
		if err != nil {
			return nil, err
		}
		return &JoinTree{Rel: rel}, nil
	case *sql.JoinExpr:
		left, err := b.bindJoinTree(x.Left)
		if err != nil {
			return nil, err
		}
		right, err := b.bindJoinTree(x.Right)
		if err != nil {
			return nil, err
		}
		conjs, err := b.bindConjuncts(x.On, "ON")
		if err != nil {
			return nil, err
		}
		avail := left.Rels() | right.Rels()
		for _, c := range conjs {
			if !c.Rels.SubsetOf(avail) {
				return nil, fmt.Errorf("plan: ON condition references relations outside the join")
			}
		}
		return &JoinTree{Type: x.Type, Left: left, Right: right, On: conjs}, nil
	default:
		return nil, fmt.Errorf("plan: unknown FROM item %T", fi)
	}
}

func (b *binder) addRel(ref *sql.TableRef) (*Rel, error) {
	t, err := b.cat.Table(ref.Table)
	if err != nil {
		return nil, err
	}
	name := strings.ToLower(ref.Name())
	if _, dup := b.byName[name]; dup {
		return nil, fmt.Errorf("plan: duplicate relation name %q (use aliases)", ref.Name())
	}
	rel := &Rel{Idx: len(b.rels), Name: ref.Name(), Table: t}
	b.rels = append(b.rels, rel)
	b.byName[name] = rel
	return rel, nil
}

// addSubqueryRel binds a derived table: the inner SELECT is bound as an
// independent query (no correlation with the outer scope) and exposed as
// a relation whose columns are the inner query's visible outputs.
func (b *binder) addSubqueryRel(ref *sql.SubqueryRef) (*Rel, error) {
	inner, err := newBinder(b.cat, b.params).bind(ref.Select)
	if err != nil {
		return nil, fmt.Errorf("plan: derived table %q: %w", ref.Alias, err)
	}
	var cols []catalog.Column
	for _, oc := range inner.Select {
		if oc.Hidden {
			continue
		}
		kind := oc.E.ResultKind()
		if kind == types.KindNull {
			kind = types.KindFloat // NULL-typed outputs default to numeric
		}
		cols = append(cols, catalog.Column{Name: oc.Name, Kind: kind})
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("plan: derived table %q has no output columns", ref.Alias)
	}
	name := strings.ToLower(ref.Alias)
	if _, dup := b.byName[name]; dup {
		return nil, fmt.Errorf("plan: duplicate relation name %q (use aliases)", ref.Alias)
	}
	rel := &Rel{
		Idx:   len(b.rels),
		Name:  ref.Alias,
		Table: &catalog.Table{Name: ref.Alias, Schema: catalog.Schema{Cols: cols}},
		Sub:   inner,
	}
	b.rels = append(b.rels, rel)
	b.byName[name] = rel
	return rel, nil
}

// bindConjuncts binds a boolean expression and splits it on top-level AND.
func (b *binder) bindConjuncts(e sql.Expr, ctx string) ([]Conjunct, error) {
	var parts []sql.Expr
	splitAnd(e, &parts)
	out := make([]Conjunct, 0, len(parts))
	for _, p := range parts {
		be, err := b.bindNoAgg(p, ctx)
		if err != nil {
			return nil, err
		}
		if be.ResultKind() != types.KindBool && be.ResultKind() != types.KindNull {
			return nil, fmt.Errorf("plan: %s condition must be boolean, got %s", ctx, be.ResultKind())
		}
		out = append(out, Conjunct{E: be, Rels: RelsOf(be)})
	}
	return out, nil
}

func splitAnd(e sql.Expr, out *[]sql.Expr) {
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == sql.OpAnd {
		splitAnd(be.L, out)
		splitAnd(be.R, out)
		return
	}
	*out = append(*out, e)
}

// bindNoAgg binds an expression in input scope, rejecting aggregates.
func (b *binder) bindNoAgg(e sql.Expr, ctx string) (Expr, error) {
	if exprHasAgg(e) {
		return nil, fmt.Errorf("plan: aggregate not allowed in %s", ctx)
	}
	return b.bindScalar(e, ctx)
}

// bindScalar binds a non-aggregate expression in input scope.
func (b *binder) bindScalar(e sql.Expr, ctx string) (Expr, error) {
	switch x := e.(type) {
	case *sql.Literal:
		c := &Const{Val: x.Value}
		if b.params != nil {
			*b.params = append(*b.params, Param{Lit: x, Const: c})
		}
		return c, nil

	case *sql.ColumnRef:
		return b.resolveColumn(x)

	case *sql.BinaryExpr:
		l, err := b.bindScalar(x.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := b.bindScalar(x.R, ctx)
		if err != nil {
			return nil, err
		}
		return makeBin(x.Op, l, r)

	case *sql.NotExpr:
		inner, err := b.bindScalar(x.E, ctx)
		if err != nil {
			return nil, err
		}
		if k := inner.ResultKind(); k != types.KindBool && k != types.KindNull {
			return nil, fmt.Errorf("plan: NOT requires a boolean, got %s", k)
		}
		return &Not{E: inner}, nil

	case *sql.NegExpr:
		inner, err := b.bindScalar(x.E, ctx)
		if err != nil {
			return nil, err
		}
		if k := inner.ResultKind(); !k.Numeric() && k != types.KindNull {
			return nil, fmt.Errorf("plan: cannot negate %s", k)
		}
		return &Neg{E: inner}, nil

	case *sql.BetweenExpr:
		ev, err := b.bindScalar(x.E, ctx)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindScalar(x.Lo, ctx)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindScalar(x.Hi, ctx)
		if err != nil {
			return nil, err
		}
		if !types.Compatible(ev.ResultKind(), lo.ResultKind()) || !types.Compatible(ev.ResultKind(), hi.ResultKind()) {
			return nil, fmt.Errorf("plan: BETWEEN operands are incompatible")
		}
		return &Between{NotB: x.Not, E: ev, Lo: lo, Hi: hi}, nil

	case *sql.InExpr:
		ev, err := b.bindScalar(x.E, ctx)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, le := range x.List {
			list[i], err = b.bindScalar(le, ctx)
			if err != nil {
				return nil, err
			}
			if !types.Compatible(ev.ResultKind(), list[i].ResultKind()) {
				return nil, fmt.Errorf("plan: IN list item %d is incompatible", i)
			}
		}
		return &In{NotI: x.Not, E: ev, List: list}, nil

	case *sql.LikeExpr:
		ev, err := b.bindScalar(x.E, ctx)
		if err != nil {
			return nil, err
		}
		if k := ev.ResultKind(); k != types.KindString && k != types.KindNull {
			return nil, fmt.Errorf("plan: LIKE requires a string, got %s", k)
		}
		return &Like{NotL: x.Not, E: ev, Pattern: x.Pattern}, nil

	case *sql.IsNullExpr:
		ev, err := b.bindScalar(x.E, ctx)
		if err != nil {
			return nil, err
		}
		return &IsNull{NotN: x.Not, E: ev}, nil

	case *sql.AggExpr:
		return nil, fmt.Errorf("plan: aggregate not allowed in %s", ctx)

	default:
		return nil, fmt.Errorf("plan: cannot bind %T", e)
	}
}

func makeBin(op sql.BinaryOp, l, r Expr) (Expr, error) {
	lk, rk := l.ResultKind(), r.ResultKind()
	switch {
	case op == sql.OpAnd || op == sql.OpOr:
		for _, k := range []types.Kind{lk, rk} {
			if k != types.KindBool && k != types.KindNull {
				return nil, fmt.Errorf("plan: %s requires booleans, got %s", op, k)
			}
		}
		return &Bin{Op: op, L: l, R: r, K: types.KindBool}, nil
	case op.Comparison():
		if !types.Compatible(lk, rk) {
			return nil, fmt.Errorf("plan: cannot compare %s with %s", lk, rk)
		}
		return &Bin{Op: op, L: l, R: r, K: types.KindBool}, nil
	default: // arithmetic
		for _, k := range []types.Kind{lk, rk} {
			if !k.Numeric() && k != types.KindNull {
				return nil, fmt.Errorf("plan: arithmetic on %s", k)
			}
		}
		k := types.KindInt
		if lk == types.KindFloat || rk == types.KindFloat {
			k = types.KindFloat
		}
		return &Bin{Op: op, L: l, R: r, K: k}, nil
	}
}

func (b *binder) resolveColumn(c *sql.ColumnRef) (*ColRef, error) {
	if c.Table != "" {
		rel, ok := b.byName[strings.ToLower(c.Table)]
		if !ok {
			return nil, fmt.Errorf("plan: unknown relation %q", c.Table)
		}
		ci := rel.Table.Schema.ColIndex(c.Column)
		if ci < 0 {
			return nil, fmt.Errorf("plan: relation %q has no column %q", c.Table, c.Column)
		}
		return &ColRef{
			Rel: rel.Idx, Col: ci,
			Kind: rel.Table.Schema.Cols[ci].Kind,
			Name: rel.Name + "." + c.Column,
		}, nil
	}
	var found *ColRef
	for _, rel := range b.rels {
		ci := rel.Table.Schema.ColIndex(c.Column)
		if ci < 0 {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("plan: column %q is ambiguous", c.Column)
		}
		found = &ColRef{
			Rel: rel.Idx, Col: ci,
			Kind: rel.Table.Schema.Cols[ci].Kind,
			Name: rel.Name + "." + c.Column,
		}
	}
	if found == nil {
		return nil, fmt.Errorf("plan: unknown column %q", c.Column)
	}
	return found, nil
}

// bindPostAgg binds an expression in post-aggregation scope: aggregate
// calls become AggScope references (registered in q.Aggs), expressions
// matching a GROUP BY key become GroupScope references, and anything else
// must decompose into those plus constants.
func (b *binder) bindPostAgg(e sql.Expr, q *Query) (Expr, error) {
	// Aggregate call: register and reference.
	if agg, ok := e.(*sql.AggExpr); ok {
		spec := AggSpec{Func: agg.Func, Star: agg.Star, Name: agg.String()}
		if !agg.Star {
			arg, err := b.bindNoAgg(agg.Arg, "aggregate argument")
			if err != nil {
				return nil, err
			}
			spec.Arg = arg
		}
		spec.Kind = aggResultKind(spec)
		if spec.Kind == types.KindNull {
			return nil, fmt.Errorf("plan: %s over %s is not supported", agg.Func, spec.Arg.ResultKind())
		}
		// Reuse an identical aggregate if present.
		for i, existing := range q.Aggs {
			if existing.Func == spec.Func && existing.Star == spec.Star &&
				(spec.Star || Equal(existing.Arg, spec.Arg)) {
				return &ColRef{Rel: AggScope, Col: i, Kind: existing.Kind, Name: spec.Name}, nil
			}
		}
		q.Aggs = append(q.Aggs, spec)
		return &ColRef{Rel: AggScope, Col: len(q.Aggs) - 1, Kind: spec.Kind, Name: spec.Name}, nil
	}

	// Whole expression equal to a GROUP BY key?
	if !exprHasAgg(e) {
		bound, err := b.bindScalar(e, "SELECT")
		if err != nil {
			return nil, err
		}
		for i, g := range q.GroupBy {
			if Equal(g, bound) {
				return &ColRef{Rel: GroupScope, Col: i, Kind: g.ResultKind(), Name: displayName(e)}, nil
			}
		}
		if _, isConst := bound.(*Const); isConst {
			return bound, nil
		}
		if RelsOf(bound) == 0 {
			return bound, nil
		}
		// Fall through to recursion so mixed expressions like
		// group_key + count(*) work; a bare column will error below.
	}

	switch x := e.(type) {
	case *sql.Literal:
		return &Const{Val: x.Value}, nil
	case *sql.ColumnRef:
		return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or inside an aggregate", x.String())
	case *sql.BinaryExpr:
		l, err := b.bindPostAgg(x.L, q)
		if err != nil {
			return nil, err
		}
		r, err := b.bindPostAgg(x.R, q)
		if err != nil {
			return nil, err
		}
		return makeBin(x.Op, l, r)
	case *sql.NotExpr:
		inner, err := b.bindPostAgg(x.E, q)
		if err != nil {
			return nil, err
		}
		return &Not{E: inner}, nil
	case *sql.NegExpr:
		inner, err := b.bindPostAgg(x.E, q)
		if err != nil {
			return nil, err
		}
		return &Neg{E: inner}, nil
	case *sql.BetweenExpr:
		ev, err := b.bindPostAgg(x.E, q)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindPostAgg(x.Lo, q)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindPostAgg(x.Hi, q)
		if err != nil {
			return nil, err
		}
		return &Between{NotB: x.Not, E: ev, Lo: lo, Hi: hi}, nil
	case *sql.InExpr:
		ev, err := b.bindPostAgg(x.E, q)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, le := range x.List {
			list[i], err = b.bindPostAgg(le, q)
			if err != nil {
				return nil, err
			}
		}
		return &In{NotI: x.Not, E: ev, List: list}, nil
	case *sql.LikeExpr:
		ev, err := b.bindPostAgg(x.E, q)
		if err != nil {
			return nil, err
		}
		return &Like{NotL: x.Not, E: ev, Pattern: x.Pattern}, nil
	case *sql.IsNullExpr:
		ev, err := b.bindPostAgg(x.E, q)
		if err != nil {
			return nil, err
		}
		return &IsNull{NotN: x.Not, E: ev}, nil
	default:
		return nil, fmt.Errorf("plan: cannot bind %T in aggregation scope", e)
	}
}

// aggResultKind determines the output type of an aggregate, or KindNull
// for unsupported combinations.
func aggResultKind(s AggSpec) types.Kind {
	if s.Func == sql.AggCount {
		return types.KindInt
	}
	k := s.Arg.ResultKind()
	switch s.Func {
	case sql.AggSum:
		switch k {
		case types.KindInt:
			return types.KindInt
		case types.KindFloat, types.KindNull:
			return types.KindFloat
		default:
			return types.KindNull
		}
	case sql.AggAvg:
		if k.Numeric() || k == types.KindNull {
			return types.KindFloat
		}
		return types.KindNull
	case sql.AggMin, sql.AggMax:
		if k == types.KindNull {
			return types.KindFloat
		}
		return k
	default:
		return types.KindNull
	}
}

func stmtHasAgg(sel *sql.SelectStmt) bool {
	for _, item := range sel.Items {
		if !item.Star && exprHasAgg(item.Expr) {
			return true
		}
	}
	if sel.Having != nil && exprHasAgg(sel.Having) {
		return true
	}
	for _, oi := range sel.OrderBy {
		if oi.Expr != nil && exprHasAgg(oi.Expr) {
			return true
		}
	}
	return false
}

func exprHasAgg(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.AggExpr:
		return true
	case *sql.BinaryExpr:
		return exprHasAgg(x.L) || exprHasAgg(x.R)
	case *sql.NotExpr:
		return exprHasAgg(x.E)
	case *sql.NegExpr:
		return exprHasAgg(x.E)
	case *sql.BetweenExpr:
		return exprHasAgg(x.E) || exprHasAgg(x.Lo) || exprHasAgg(x.Hi)
	case *sql.InExpr:
		if exprHasAgg(x.E) {
			return true
		}
		for _, l := range x.List {
			if exprHasAgg(l) {
				return true
			}
		}
		return false
	case *sql.LikeExpr:
		return exprHasAgg(x.E)
	case *sql.IsNullExpr:
		return exprHasAgg(x.E)
	default:
		return false
	}
}

func displayName(e sql.Expr) string {
	if c, ok := e.(*sql.ColumnRef); ok {
		return c.Column
	}
	return e.String()
}
