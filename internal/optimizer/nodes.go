package optimizer

import (
	"fmt"

	"strconv"

	"dbvirt/internal/catalog"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
)

// Node is a physical plan operator. Nodes are immutable once built; the
// executor walks the tree and instantiates iterators.
type Node interface {
	// Rows is the estimated output cardinality.
	Rows() float64
	// Cost is the estimated cost in seq-page units.
	Cost() Cost
	// Layout maps relation indexes to offsets in this node's output rows.
	Layout() plan.Layout
	// Width is the number of values per output row.
	Width() int
	// name is the operator name for EXPLAIN.
	name() string
	// children returns the input nodes for EXPLAIN.
	children() []Node
	// detail is extra EXPLAIN text (predicates, keys).
	detail() []string
}

// common holds the fields shared by every node.
type common struct {
	rows     float64
	cost     Cost
	layout   plan.Layout
	width    int
	rowBytes float64 // estimated bytes per output row
}

func (c *common) Rows() float64       { return c.rows }
func (c *common) Cost() Cost          { return c.cost }
func (c *common) Layout() plan.Layout { return c.layout }
func (c *common) Width() int          { return c.width }

// SeqScan reads a base table sequentially, applying pushed-down filters.
type SeqScan struct {
	common
	Rel    *plan.Rel
	Filter []plan.Conjunct
	// skipFrac is the estimated fraction of the scan that passes before
	// the first row matching Filter (see leadingMisses), kept like
	// IndexScan.rangeSel so the scan can be re-costed under new
	// parameters without re-deriving it.
	skipFrac float64
}

func (*SeqScan) name() string     { return "SeqScan" }
func (*SeqScan) children() []Node { return nil }
func (s *SeqScan) detail() []string {
	d := []string{"on " + s.Rel.Name}
	if len(s.Filter) > 0 {
		d = append(d, "filter: "+conjString(s.Filter))
	}
	return d
}

// Bound is one end of an index key range. Inclusive int64 bound; nil means
// unbounded.
type Bound struct {
	Key int64
}

// IndexScan probes a B+-tree for keys in [Lo, Hi] and fetches matching
// heap tuples, applying residual filters.
type IndexScan struct {
	common
	Rel    *plan.Rel
	Index  *catalog.Index
	Lo, Hi *Bound // nil = open end
	Filter []plan.Conjunct
	// Correlated is true when the index correlation is high enough that
	// heap fetches are charged (and hinted) as sequential.
	Correlated bool
	// keys is the key range (Lo and Hi point into ends) and rangeSel its
	// selectivity, kept so a replay need not re-derive them.
	keys     keyRange
	ends     [2]Bound
	rangeSel float64
}

func (*IndexScan) name() string     { return "IndexScan" }
func (*IndexScan) children() []Node { return nil }
func (s *IndexScan) detail() []string {
	d := []string{"on " + s.Rel.Name + " using " + s.Index.Name + rangeString(s.Lo, s.Hi)}
	if len(s.Filter) > 0 {
		d = append(d, "filter: "+conjString(s.Filter))
	}
	return d
}

// SubqueryScan evaluates a derived table (FROM subquery): its input is
// the independently optimized inner plan, and its output rows are the
// inner query's visible columns, addressed as the relation Rel.
type SubqueryScan struct {
	common
	Rel   *plan.Rel
	Input Node
	// Visible maps output columns to positions in the inner plan's rows
	// (the inner projection includes hidden ORDER BY columns).
	Visible []int
	// innerEnum is the origRoot of the inner PreparedQuery's enumeration
	// whose shape Input has; replay compares it by identity.
	innerEnum Node
}

func (*SubqueryScan) name() string       { return "SubqueryScan" }
func (s *SubqueryScan) children() []Node { return []Node{s.Input} }
func (s *SubqueryScan) detail() []string { return []string{"as " + s.Rel.Name} }

// FilterNode applies predicates above its input.
type FilterNode struct {
	common
	Input Node
	Conds []plan.Conjunct
}

func (*FilterNode) name() string       { return "Filter" }
func (f *FilterNode) children() []Node { return []Node{f.Input} }
func (f *FilterNode) detail() []string { return []string{"cond: " + conjString(f.Conds)} }

// NLJoin is a nested-loops join with the inner side materialized in
// memory and rescanned per outer row.
type NLJoin struct {
	common
	Type  sql.JoinType
	Outer Node
	Inner Node
	On    []plan.Conjunct // evaluated over the concatenated row
}

func (*NLJoin) name() string       { return "NestLoop" }
func (j *NLJoin) children() []Node { return []Node{j.Outer, j.Inner} }
func (j *NLJoin) detail() []string {
	d := []string{j.Type.String()}
	if len(j.On) > 0 {
		d = append(d, "on: "+conjString(j.On))
	}
	return d
}

// HashJoin builds a hash table on the inner (right) side keyed by
// RightKeys and probes it with LeftKeys. For LEFT joins, unmatched outer
// rows are emitted null-extended.
type HashJoin struct {
	common
	Type      sql.JoinType
	Left      Node // probe side (outer)
	Right     Node // build side (inner)
	LeftKeys  []plan.Expr
	RightKeys []plan.Expr
	Residual  []plan.Conjunct
	// Batches > 1 indicates the planner expects the build side to exceed
	// work_mem and be partitioned to disk (Grace hash join).
	Batches int
	// BuildOuter executes the join "in reverse" (PostgreSQL's Hash Right
	// Join): the hash table is built on the outer (left) side and probed
	// with inner rows, with unmatched outer rows emitted at the end. The
	// result is identical; it is chosen when the outer side is smaller.
	BuildOuter bool
}

func (*HashJoin) name() string       { return "HashJoin" }
func (j *HashJoin) children() []Node { return []Node{j.Left, j.Right} }
func (j *HashJoin) detail() []string {
	d := []string{j.Type.String(), "keys: " + exprList(j.LeftKeys) + " = " + exprList(j.RightKeys)}
	if len(j.Residual) > 0 {
		d = append(d, "residual: "+conjString(j.Residual))
	}
	if j.Batches > 1 {
		d = append(d, "batches: "+strconv.Itoa(j.Batches))
	}
	if j.BuildOuter {
		d = append(d, "build=outer")
	}
	return d
}

// IndexNLJoin probes an index on the inner relation once per outer row
// with a key computed from the outer row (equi-join only).
type IndexNLJoin struct {
	common
	Type     sql.JoinType
	Outer    Node
	InnerRel *plan.Rel
	Index    *catalog.Index
	// OuterKey yields the probe key from the outer row.
	OuterKey plan.Expr
	// InnerFilter applies to inner tuples before joining.
	InnerFilter []plan.Conjunct
	// Residual applies to the concatenated row.
	Residual []plan.Conjunct
}

func (*IndexNLJoin) name() string       { return "IndexNestLoop" }
func (j *IndexNLJoin) children() []Node { return []Node{j.Outer} }
func (j *IndexNLJoin) detail() []string {
	d := []string{
		j.Type.String(),
		"inner: " + j.InnerRel.Name + " using " + j.Index.Name,
		"key: " + j.OuterKey.String(),
	}
	if len(j.InnerFilter) > 0 {
		d = append(d, "inner filter: "+conjString(j.InnerFilter))
	}
	if len(j.Residual) > 0 {
		d = append(d, "residual: "+conjString(j.Residual))
	}
	return d
}

// MergeJoin joins two inputs sorted ascending by their key columns
// (bare-column equi-keys only; inner joins only). The planner feeds it
// index scans that already produce key order, or inserts explicit Sorts.
type MergeJoin struct {
	common
	Type        sql.JoinType
	Left, Right Node
	// LeftCols/RightCols are the key column offsets in each child's rows.
	LeftCols, RightCols []int
	Residual            []plan.Conjunct
}

func (*MergeJoin) name() string       { return "MergeJoin" }
func (j *MergeJoin) children() []Node { return []Node{j.Left, j.Right} }
func (j *MergeJoin) detail() []string {
	var keys []string
	for i := range j.LeftCols {
		keys = append(keys, fmt.Sprintf("l%d = r%d", j.LeftCols[i], j.RightCols[i]))
	}
	d := []string{j.Type.String(), "keys: " + join(keys, ", ")}
	if len(j.Residual) > 0 {
		d = append(d, "residual: "+conjString(j.Residual))
	}
	return d
}

// SortKey orders by a column offset of the input row.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materializes and sorts its input, spilling to simulated disk when
// the data exceeds work_mem (external merge sort).
type Sort struct {
	common
	Input Node
	Keys  []SortKey
	// SpillPages is the planner's estimate of pages written+read if the
	// sort exceeds work_mem (0 = in-memory).
	SpillPages float64
}

func (*Sort) name() string       { return "Sort" }
func (s *Sort) children() []Node { return []Node{s.Input} }
func (s *Sort) detail() []string {
	var keys []string
	for _, k := range s.Keys {
		kk := "col" + strconv.Itoa(k.Col)
		if k.Desc {
			kk += " DESC"
		}
		keys = append(keys, kk)
	}
	d := []string{"keys: " + join(keys, ", ")}
	if s.SpillPages > 0 {
		d = append(d, "external")
	}
	return d
}

// HashAgg groups its input by the GroupBy expressions (over the input
// layout) and computes the aggregates. Output rows are group keys followed
// by aggregate values (plan.PostAgg layout).
type HashAgg struct {
	common
	Input   Node
	GroupBy []plan.Expr
	Aggs    []plan.AggSpec
}

func (*HashAgg) name() string       { return "HashAggregate" }
func (a *HashAgg) children() []Node { return []Node{a.Input} }
func (a *HashAgg) detail() []string {
	var d []string
	if len(a.GroupBy) > 0 {
		d = append(d, "group by: "+exprList(a.GroupBy))
	}
	var aggs []string
	for _, s := range a.Aggs {
		aggs = append(aggs, s.Name)
	}
	return append(d, "aggs: "+join(aggs, ", "))
}

// Project evaluates the output expressions.
type Project struct {
	common
	Input Node
	Cols  []plan.OutputCol
}

func (*Project) name() string       { return "Project" }
func (p *Project) children() []Node { return []Node{p.Input} }
func (p *Project) detail() []string {
	var cols []string
	for _, c := range p.Cols {
		n := c.Name
		if c.Hidden {
			n += " (hidden)"
		}
		cols = append(cols, n)
	}
	return []string{join(cols, ", ")}
}

// Distinct removes duplicate visible rows by hashing.
type Distinct struct {
	common
	Input Node
	// VisibleCols is the number of leading row values that participate in
	// the duplicate check (hidden ORDER BY columns are excluded).
	VisibleCols int
}

func (*Distinct) name() string       { return "Distinct" }
func (d *Distinct) children() []Node { return []Node{d.Input} }
func (*Distinct) detail() []string   { return nil }

// Limit truncates the input to N rows.
type Limit struct {
	common
	Input Node
	N     int64
	// fraction is the tuple fraction the paths below were chosen under:
	// N over the estimated rows, or 1 when a Sort or aggregate between
	// the Limit and the joins needs every row anyway.
	fraction float64
}

func (*Limit) name() string       { return "Limit" }
func (l *Limit) children() []Node { return []Node{l.Input} }
func (l *Limit) detail() []string {
	return []string{strconv.FormatInt(l.N, 10), "fraction=" + strconv.FormatFloat(l.fraction, 'g', 3, 64)}
}
