// Package sql implements the engine's SQL front end: a lexer and
// recursive-descent parser for the subset of SQL used by the workloads and
// calibration probes — SELECT with joins (including LEFT OUTER), WHERE,
// GROUP BY / HAVING, ORDER BY, LIMIT, aggregates, BETWEEN / IN / LIKE /
// IS NULL, plus CREATE TABLE, CREATE INDEX, INSERT, ANALYZE, and EXPLAIN.
package sql

import (
	"fmt"
	"strings"

	"dbvirt/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem // comma-separated join list
	Where    Expr       // nil if absent
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
}

// SelectItem is one output column: an expression with an optional alias,
// or a bare star.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// FromItem is a base table reference or an explicit join tree.
type FromItem interface{ fromItem() }

// TableRef names a base table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the alias if set, else the table name.
func (t *TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// SubqueryRef is a derived table: (SELECT ...) AS alias in FROM.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

// JoinType distinguishes inner from left outer joins.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
)

// String names the join type.
func (j JoinType) String() string {
	if j == LeftJoin {
		return "LEFT JOIN"
	}
	return "JOIN"
}

// JoinExpr is an explicit JOIN ... ON ... tree.
type JoinExpr struct {
	Type  JoinType
	Left  FromItem
	Right FromItem
	On    Expr
}

func (*TableRef) fromItem()    {}
func (*JoinExpr) fromItem()    {}
func (*SubqueryRef) fromItem() {}

// OrderItem is one ORDER BY key. Position is 1-based when the key is a
// select-list ordinal (ORDER BY 2); otherwise Expr is set.
type OrderItem struct {
	Expr     Expr
	Position int
	Desc     bool
}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// ColumnDef is one column definition.
type ColumnDef struct {
	Name string
	Kind types.Kind
}

// CreateIndexStmt is CREATE INDEX name ON table (column).
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
}

// InsertStmt is INSERT INTO table VALUES (...), (...).
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

// DeleteStmt is DELETE FROM table [WHERE cond].
type DeleteStmt struct {
	Table string
	Where Expr // nil deletes all rows
}

// SetClause assigns one column in an UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE table SET col = expr [, ...] [WHERE cond].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr // nil updates all rows
}

// AnalyzeStmt is ANALYZE [table]; empty Table means all tables.
type AnalyzeStmt struct {
	Table string
}

// ExplainStmt wraps a SELECT whose plan should be shown. With Analyze
// set (EXPLAIN ANALYZE) the query is also executed and the plan is
// annotated with actual per-operator rows and simulated time.
type ExplainStmt struct {
	Query   *SelectStmt
	Analyze bool
}

// BeginStmt is BEGIN [TRANSACTION]: it opens an explicit snapshot-isolation
// transaction on the session.
type BeginStmt struct{}

// CommitStmt is COMMIT: it makes the current transaction's effects durable
// and visible to transactions that start later.
type CommitStmt struct{}

// RollbackStmt is ROLLBACK: it undoes the current transaction.
type RollbackStmt struct{}

// CheckpointStmt is CHECKPOINT: it forces a durable snapshot and truncates
// the write-ahead log.
type CheckpointStmt struct{}

func (*SelectStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*AnalyzeStmt) stmt()     {}
func (*ExplainStmt) stmt()     {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}
func (*CheckpointStmt) stmt()  {}

// Expr is any expression node.
type Expr interface {
	expr()
	String() string
}

// ColumnRef is a possibly-qualified column reference.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators in increasing binding strength groups.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binaryOpNames = map[BinaryOp]string{
	OpOr: "OR", OpAnd: "AND", OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// String names the operator.
func (o BinaryOp) String() string { return binaryOpNames[o] }

// Comparison reports whether the operator is a comparison (yields BOOL).
func (o BinaryOp) Comparison() bool { return o >= OpEq && o <= OpGe }

// Flip returns the comparison that holds of (b, a) exactly when o holds of
// (a, b); operators other than the four inequalities are their own flip.
func (o BinaryOp) Flip() BinaryOp {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return o
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

// NotExpr is logical negation.
type NotExpr struct {
	E Expr
}

// NegExpr is arithmetic negation.
type NegExpr struct {
	E Expr
}

// BetweenExpr is e BETWEEN lo AND hi (with optional NOT).
type BetweenExpr struct {
	Not    bool
	E      Expr
	Lo, Hi Expr
}

// InExpr is e IN (v1, v2, ...) (with optional NOT).
type InExpr struct {
	Not  bool
	E    Expr
	List []Expr
}

// LikeExpr is e LIKE pattern (with optional NOT). The pattern must be a
// string literal.
type LikeExpr struct {
	Not     bool
	E       Expr
	Pattern string
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	Not bool
	E   Expr
}

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

// String names the aggregate.
func (a AggFunc) String() string { return aggNames[a] }

// AggExpr is an aggregate call. Star is COUNT(*).
type AggExpr struct {
	Func AggFunc
	Star bool
	Arg  Expr // nil when Star
}

func (*ColumnRef) expr()   {}
func (*Literal) expr()     {}
func (*BinaryExpr) expr()  {}
func (*NotExpr) expr()     {}
func (*NegExpr) expr()     {}
func (*BetweenExpr) expr() {}
func (*InExpr) expr()      {}
func (*LikeExpr) expr()    {}
func (*IsNullExpr) expr()  {}
func (*AggExpr) expr()     {}

// String renders the column reference.
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// String renders the literal.
func (l *Literal) String() string {
	if l.Value.Kind == types.KindString {
		return "'" + l.Value.S + "'"
	}
	return l.Value.String()
}

// String renders the binary expression with parentheses.
func (b *BinaryExpr) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// String renders NOT e.
func (n *NotExpr) String() string { return "NOT " + n.E.String() }

// String renders -e.
func (n *NegExpr) String() string { return "-" + n.E.String() }

// String renders the BETWEEN expression.
func (b *BetweenExpr) String() string {
	not := ""
	if b.Not {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s BETWEEN %s AND %s)", b.E, not, b.Lo, b.Hi)
}

// String renders the IN expression.
func (i *InExpr) String() string {
	var parts []string
	for _, e := range i.List {
		parts = append(parts, e.String())
	}
	not := ""
	if i.Not {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s IN (%s))", i.E, not, strings.Join(parts, ", "))
}

// String renders the LIKE expression.
func (l *LikeExpr) String() string {
	not := ""
	if l.Not {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s LIKE '%s')", l.E, not, l.Pattern)
}

// String renders the IS NULL expression.
func (i *IsNullExpr) String() string {
	if i.Not {
		return "(" + i.E.String() + " IS NOT NULL)"
	}
	return "(" + i.E.String() + " IS NULL)"
}

// String renders the aggregate call.
func (a *AggExpr) String() string {
	if a.Star {
		return a.Func.String() + "(*)"
	}
	return a.Func.String() + "(" + a.Arg.String() + ")"
}
