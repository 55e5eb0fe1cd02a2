// Package plan implements the semantic layer between the SQL parser and
// the optimizer/executor: it binds parsed queries against the catalog,
// resolves and type-checks expressions, classifies predicates by the
// relations they touch, and compiles bound expressions to evaluators with
// SQL three-valued logic. Compiled evaluators charge their CPU cost to a
// sink (the session's VM) so that expression-heavy queries are CPU-bound
// in the simulator, as they are on real hardware.
package plan

import (
	"fmt"
	"strings"

	"dbvirt/internal/sql"
	"dbvirt/internal/types"
)

// Simulated CPU cost, in abstract machine operations, of evaluating one
// expression operator node once. With the default machine (1e9 ops/s CPU,
// 2560 pages/s sequential disk) one operator evaluation costs ~0.00026 of
// a sequential page fetch, so plain scans are disk-dominated — as on the
// paper's 2006 testbed — while expression-heavy work (LIKE over long
// strings) remains CPU-dominated.
const OpsPerOperator = 100

// CPUSink receives the CPU cost of expression evaluation. *vm.VM satisfies
// it.
type CPUSink interface {
	AccountCPU(ops float64)
}

// Expr is a bound (resolved, type-checked) expression.
type Expr interface {
	// ResultKind is the expression's result type. Comparisons and logic
	// yield KindBool.
	ResultKind() types.Kind
	// String renders the expression for EXPLAIN output.
	String() string
}

// ColRef references column Col of relation Rel (an index into the bound
// query's Rels). In post-aggregation scope, Rel is one of the pseudo
// relations GroupScope or AggScope.
type ColRef struct {
	Rel  int
	Col  int
	Kind types.Kind
	Name string // qualified display name
}

// Pseudo relation indexes for post-aggregation scope.
const (
	// GroupScope marks a ColRef to group-by key i (Col = i).
	GroupScope = -1
	// AggScope marks a ColRef to aggregate output i (Col = i).
	AggScope = -2
)

// Const is a literal.
type Const struct {
	Val types.Value
}

// Bin is a binary operation (arithmetic or comparison or AND/OR).
type Bin struct {
	Op   sql.BinaryOp
	L, R Expr
	K    types.Kind
}

// Not is logical negation.
type Not struct{ E Expr }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// Between is e [NOT] BETWEEN lo AND hi.
type Between struct {
	NotB   bool
	E      Expr
	Lo, Hi Expr
}

// In is e [NOT] IN (list).
type In struct {
	NotI bool
	E    Expr
	List []Expr
}

// Like is e [NOT] LIKE pattern.
type Like struct {
	NotL    bool
	E       Expr
	Pattern string
}

// IsNull is e IS [NOT] NULL.
type IsNull struct {
	NotN bool
	E    Expr
}

// ResultKind implementations.
func (c *ColRef) ResultKind() types.Kind { return c.Kind }
func (c *Const) ResultKind() types.Kind  { return c.Val.Kind }
func (b *Bin) ResultKind() types.Kind    { return b.K }
func (*Not) ResultKind() types.Kind      { return types.KindBool }
func (n *Neg) ResultKind() types.Kind    { return n.E.ResultKind() }
func (*Between) ResultKind() types.Kind  { return types.KindBool }
func (*In) ResultKind() types.Kind       { return types.KindBool }
func (*Like) ResultKind() types.Kind     { return types.KindBool }
func (*IsNull) ResultKind() types.Kind   { return types.KindBool }

// String implementations.
func (c *ColRef) String() string {
	switch c.Rel {
	case GroupScope:
		return fmt.Sprintf("group[%d]", c.Col)
	case AggScope:
		return fmt.Sprintf("agg[%d]", c.Col)
	default:
		return c.Name
	}
}

func (c *Const) String() string {
	if c.Val.Kind == types.KindString {
		return "'" + c.Val.S + "'"
	}
	return c.Val.String()
}

func (b *Bin) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

func (n *Not) String() string { return "NOT " + n.E.String() }
func (n *Neg) String() string { return "-" + n.E.String() }

func (b *Between) String() string {
	not := ""
	if b.NotB {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s BETWEEN %s AND %s)", b.E, not, b.Lo, b.Hi)
}

func (i *In) String() string {
	var parts []string
	for _, e := range i.List {
		parts = append(parts, e.String())
	}
	not := ""
	if i.NotI {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s IN (%s))", i.E, not, strings.Join(parts, ", "))
}

func (l *Like) String() string {
	not := ""
	if l.NotL {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s LIKE '%s')", l.E, not, l.Pattern)
}

func (i *IsNull) String() string {
	if i.NotN {
		return "(" + i.E.String() + " IS NOT NULL)"
	}
	return "(" + i.E.String() + " IS NULL)"
}

// Equal reports structural equality of two bound expressions; used to
// match ORDER BY and select-list expressions against GROUP BY keys.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && x.Rel == y.Rel && x.Col == y.Col
	case *Const:
		y, ok := b.(*Const)
		if !ok || x.Val.Kind != y.Val.Kind {
			return false
		}
		if x.Val.IsNull() {
			return true
		}
		return types.Equal(x.Val, y.Val)
	case *Bin:
		y, ok := b.(*Bin)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.E, y.E)
	case *Neg:
		y, ok := b.(*Neg)
		return ok && Equal(x.E, y.E)
	case *Between:
		y, ok := b.(*Between)
		return ok && x.NotB == y.NotB && Equal(x.E, y.E) && Equal(x.Lo, y.Lo) && Equal(x.Hi, y.Hi)
	case *In:
		y, ok := b.(*In)
		if !ok || x.NotI != y.NotI || len(x.List) != len(y.List) || !Equal(x.E, y.E) {
			return false
		}
		for i := range x.List {
			if !Equal(x.List[i], y.List[i]) {
				return false
			}
		}
		return true
	case *Like:
		y, ok := b.(*Like)
		return ok && x.NotL == y.NotL && x.Pattern == y.Pattern && Equal(x.E, y.E)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.NotN == y.NotN && Equal(x.E, y.E)
	default:
		return false
	}
}

// RelSet is a bitmask of relation indexes (supports up to 64 relations).
type RelSet uint64

// NewRelSet builds a set from relation indexes.
func NewRelSet(rels ...int) RelSet {
	var s RelSet
	for _, r := range rels {
		s |= 1 << uint(r)
	}
	return s
}

// Has reports whether relation r is in the set.
func (s RelSet) Has(r int) bool { return s&(1<<uint(r)) != 0 }

// SubsetOf reports whether s ⊆ o.
func (s RelSet) SubsetOf(o RelSet) bool { return s&^o == 0 }

// Count returns the number of relations in the set.
func (s RelSet) Count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

// RelsOf returns the set of base relations referenced by an expression.
// Pseudo-scope references contribute nothing.
func RelsOf(e Expr) RelSet {
	switch x := e.(type) {
	case *ColRef:
		if x.Rel >= 0 {
			return NewRelSet(x.Rel)
		}
		return 0
	case *Const:
		return 0
	case *Bin:
		return RelsOf(x.L) | RelsOf(x.R)
	case *Not:
		return RelsOf(x.E)
	case *Neg:
		return RelsOf(x.E)
	case *Between:
		return RelsOf(x.E) | RelsOf(x.Lo) | RelsOf(x.Hi)
	case *In:
		s := RelsOf(x.E)
		for _, l := range x.List {
			s |= RelsOf(l)
		}
		return s
	case *Like:
		return RelsOf(x.E)
	case *IsNull:
		return RelsOf(x.E)
	default:
		return 0
	}
}
