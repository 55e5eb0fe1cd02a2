package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// The DML differential test runs random UPDATE and DELETE statements
// through the engine (planned victim scan, MVCC writes, index maintenance)
// and against the oracle below: a row-at-a-time scan over an in-memory copy
// of the table with its own three-valued predicate evaluator. The oracle
// shares no code with the engine, so a disagreement in the affected-row
// count or in the table contents afterwards points at the planner's key
// ranges, the scan's visibility handling, or index maintenance.
//
// Table p has columns a INT, b INT (both possibly indexed, both with NULLs
// and duplicates), c FLOAT and d TEXT (never indexed).

// tri is a SQL truth value.
type tri int8

const (
	triFalse tri = iota
	triTrue
	triNull
)

// propPred is a WHERE clause the oracle can evaluate.
type propPred interface {
	SQL() string
	eval(row storage.Tuple) tri
}

// cmpPred is `col op k` (or `k op col` when flipped) on a numeric column.
type cmpPred struct {
	col     int
	op      string
	k       float64
	flipped bool
}

var propCols = []string{"a", "b", "c", "d"}

func numLit(k float64) string {
	if k == float64(int64(k)) {
		return fmt.Sprintf("%d", int64(k))
	}
	return fmt.Sprintf("%g", k)
}

var flipOpSQL = map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

func (p cmpPred) SQL() string {
	if p.flipped {
		return fmt.Sprintf("%s %s %s", numLit(p.k), flipOpSQL[p.op], propCols[p.col])
	}
	return fmt.Sprintf("%s %s %s", propCols[p.col], p.op, numLit(p.k))
}

func numOf(v types.Value) (float64, bool) {
	switch v.Kind {
	case types.KindInt:
		return float64(v.I), true
	case types.KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

func (p cmpPred) eval(row storage.Tuple) tri {
	v, ok := numOf(row[p.col])
	if !ok {
		return triNull
	}
	var r bool
	switch p.op {
	case "=":
		r = v == p.k
	case "<>":
		r = v != p.k
	case "<":
		r = v < p.k
	case "<=":
		r = v <= p.k
	case ">":
		r = v > p.k
	default:
		r = v >= p.k
	}
	if r {
		return triTrue
	}
	return triFalse
}

// betweenPred is `col BETWEEN lo AND hi`.
type betweenPred struct {
	col    int
	lo, hi float64
}

func (p betweenPred) SQL() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", propCols[p.col], numLit(p.lo), numLit(p.hi))
}

func (p betweenPred) eval(row storage.Tuple) tri {
	v, ok := numOf(row[p.col])
	if !ok {
		return triNull
	}
	if v >= p.lo && v <= p.hi {
		return triTrue
	}
	return triFalse
}

// textPred is `d = 's'`.
type textPred struct{ s string }

func (p textPred) SQL() string { return fmt.Sprintf("d = '%s'", p.s) }
func (p textPred) eval(row storage.Tuple) tri {
	if row[3].IsNull() {
		return triNull
	}
	if row[3].S == p.s {
		return triTrue
	}
	return triFalse
}

// logicPred is `(l AND r)` or `(l OR r)` under three-valued logic.
type logicPred struct {
	or   bool
	l, r propPred
}

func (p logicPred) SQL() string {
	op := "AND"
	if p.or {
		op = "OR"
	}
	return fmt.Sprintf("(%s %s %s)", p.l.SQL(), op, p.r.SQL())
}

func (p logicPred) eval(row storage.Tuple) tri {
	l, r := p.l.eval(row), p.r.eval(row)
	if p.or {
		switch {
		case l == triTrue || r == triTrue:
			return triTrue
		case l == triNull || r == triNull:
			return triNull
		}
		return triFalse
	}
	switch {
	case l == triFalse || r == triFalse:
		return triFalse
	case l == triNull || r == triNull:
		return triNull
	}
	return triTrue
}

// allPred is the absent WHERE clause.
type allPred struct{}

func (allPred) SQL() string            { return "" }
func (allPred) eval(storage.Tuple) tri { return triTrue }

// propSet is one SET assignment the oracle can apply.
type propSet struct {
	col  int
	sql  string
	next func(row storage.Tuple) types.Value
}

func intPlus(col int, d int64) func(storage.Tuple) types.Value {
	return func(row storage.Tuple) types.Value {
		if row[col].IsNull() {
			return types.Null
		}
		return types.NewInt(row[col].I + d)
	}
}

func constant(v types.Value) func(storage.Tuple) types.Value {
	return func(storage.Tuple) types.Value { return v }
}

// propGen draws statements for one seed.
type propGen struct {
	rng  *rand.Rand
	keys int // a and b are drawn from [0, keys)
}

func (g *propGen) key() float64 { return float64(g.rng.Intn(g.keys+4) - 2) }

func (g *propGen) intCol() int { return g.rng.Intn(2) }

func (g *propGen) pred() propPred {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	switch g.rng.Intn(12) {
	case 0: // no WHERE
		return allPred{}
	case 1, 2: // point
		return cmpPred{col: g.intCol(), op: "=", k: g.key(), flipped: g.rng.Intn(4) == 0}
	case 3: // range from two comparisons
		c := g.intCol()
		lo := g.key()
		return logicPred{
			l: cmpPred{col: c, op: []string{">", ">="}[g.rng.Intn(2)], k: lo},
			r: cmpPred{col: c, op: []string{"<", "<="}[g.rng.Intn(2)], k: lo + float64(g.rng.Intn(8)) - 1},
		}
	case 4: // BETWEEN, sometimes inverted, sometimes fractional
		lo := g.key()
		p := betweenPred{col: g.intCol(), lo: lo, hi: lo + float64(g.rng.Intn(8)) - 1}
		if g.rng.Intn(3) == 0 {
			p.lo += 0.5
			p.hi += 0.25
		}
		return p
	case 5: // float constants against an int key; half of them equalities
		op := "="
		if g.rng.Intn(2) == 0 {
			op = ops[g.rng.Intn(len(ops))]
		}
		return cmpPred{col: g.intCol(), op: op, k: g.key() + 0.5, flipped: g.rng.Intn(4) == 0}
	case 6: // OR: not a key range
		return logicPred{or: true,
			l: cmpPred{col: 0, op: "=", k: g.key()},
			r: cmpPred{col: 1, op: ops[g.rng.Intn(len(ops))], k: g.key()}}
	case 7: // not sargable
		return cmpPred{col: g.intCol(), op: "<>", k: g.key()}
	case 8: // non-indexed columns
		if g.rng.Intn(2) == 0 {
			return textPred{s: fmt.Sprintf("s%d", g.rng.Intn(5))}
		}
		return cmpPred{col: 2, op: ops[g.rng.Intn(len(ops))], k: float64(g.rng.Intn(40)) / 2}
	case 9: // key range with a residual on another column
		return logicPred{
			l: betweenPred{col: 0, lo: g.key(), hi: g.key() + 5},
			r: cmpPred{col: 2, op: "<", k: float64(g.rng.Intn(40)) / 2}}
	case 10: // bounds on both indexed columns
		return logicPred{
			l: cmpPred{col: 0, op: ">=", k: g.key()},
			r: cmpPred{col: 1, op: "=", k: g.key()}}
	default: // any comparison
		return cmpPred{col: g.intCol(), op: ops[g.rng.Intn(len(ops))], k: g.key()}
	}
}

func (g *propGen) sets() []propSet {
	var out []propSet
	used := map[int]bool{}
	for n := 1 + g.rng.Intn(2); len(out) < n; {
		var s propSet
		switch g.rng.Intn(7) {
		case 0: // shift the key the victim scan may be reading (Halloween)
			d := int64(1 + g.rng.Intn(3))
			s = propSet{col: 0, sql: fmt.Sprintf("a = a + %d", d), next: intPlus(0, d)}
		case 1:
			k := int64(g.key())
			s = propSet{col: 0, sql: fmt.Sprintf("a = %d", k), next: constant(types.NewInt(k))}
		case 2:
			s = propSet{col: 0, sql: "a = NULL", next: constant(types.Null)}
		case 3:
			s = propSet{col: 1, sql: "b = b - 1", next: intPlus(1, -1)}
		case 4: // one column from another
			s = propSet{col: 1, sql: "b = a", next: func(row storage.Tuple) types.Value { return row[0] }}
		case 5:
			s = propSet{col: 2, sql: "c = c + 0.5", next: func(row storage.Tuple) types.Value {
				if row[2].IsNull() {
					return types.Null
				}
				return types.NewFloat(row[2].F + 0.5)
			}}
		default:
			s = propSet{col: 3, sql: "d = 'upd'", next: constant(types.NewString("upd"))}
		}
		if !used[s.col] {
			used[s.col] = true
			out = append(out, s)
		}
	}
	return out
}

func (g *propGen) row() storage.Tuple {
	intOrNull := func() types.Value {
		if g.rng.Intn(10) == 0 {
			return types.Null
		}
		return types.NewInt(int64(g.rng.Intn(g.keys)))
	}
	return storage.Tuple{
		intOrNull(), intOrNull(),
		types.NewFloat(float64(g.rng.Intn(40)) / 2),
		types.NewString(fmt.Sprintf("s%d", g.rng.Intn(5))),
	}
}

func tupleSQL(t storage.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		switch {
		case v.IsNull():
			parts[i] = "NULL"
		case v.Kind == types.KindString:
			parts[i] = "'" + v.S + "'"
		case v.Kind == types.KindFloat:
			parts[i] = fmt.Sprintf("%.2f", v.F)
		default:
			parts[i] = fmt.Sprintf("%d", v.I)
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// propModel is the oracle's copy of the table as the session sees it.
type propModel struct{ rows []storage.Tuple }

func (m *propModel) clone() *propModel {
	c := &propModel{rows: make([]storage.Tuple, len(m.rows))}
	for i, r := range m.rows {
		c.rows[i] = r.Clone()
	}
	return c
}

// delete removes the rows the predicate holds for, one row at a time.
func (m *propModel) delete(p propPred) int64 {
	kept := m.rows[:0]
	var n int64
	for _, r := range m.rows {
		if p.eval(r) == triTrue {
			n++
			continue
		}
		kept = append(kept, r)
	}
	m.rows = kept
	return n
}

// update rewrites matching rows; every SET expression reads the old row.
func (m *propModel) update(p propPred, sets []propSet) int64 {
	var n int64
	for i, r := range m.rows {
		if p.eval(r) != triTrue {
			continue
		}
		n++
		next := r.Clone()
		for _, s := range sets {
			next[s.col] = s.next(r)
		}
		m.rows[i] = next
	}
	return n
}

func sortedRows(rows []string) []string { sort.Strings(rows); return rows }

func (m *propModel) canon() []string {
	out := make([]string, len(m.rows))
	for i, r := range m.rows {
		out[i] = tupleSQL(r)
	}
	return sortedRows(out)
}

// propCheck compares the engine's table with the model and checks every
// index: structurally always, and entry for entry once no version is
// pending (inside a transaction the superseded versions are still indexed).
func propCheck(t *testing.T, s *Session, m *propModel, what string) {
	t.Helper()
	got := make([]string, 0, len(m.rows))
	for _, r := range query(t, s, "SELECT * FROM p") {
		got = append(got, tupleSQL(storage.Tuple(r)))
	}
	want := m.canon()
	if a, b := strings.Join(sortedRows(got), "\n"), strings.Join(want, "\n"); a != b {
		t.Fatalf("%s: table differs from the oracle (%d rows vs %d)\nengine:\n%s\noracle:\n%s", what, len(got), len(want), a, b)
	}
	tab, err := s.DB.Catalog.Table("p")
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range tab.Indexes {
		if err := ix.Tree.CheckInvariants(s.Pool); err != nil {
			t.Fatalf("%s: index %s: %v", what, ix.Name, err)
		}
		if s.InTxn() {
			continue
		}
		var nonNull int64
		for _, r := range m.rows {
			if !r[ix.Col].IsNull() {
				nonNull++
			}
		}
		if n, err := ix.Tree.NumEntries(s.Pool); err != nil || n != nonNull {
			t.Fatalf("%s: index %s holds %d entries (err %v), the table %d non-NULL keys", what, ix.Name, n, err, nonNull)
		}
		// Every key must still be reachable through the index.
		for k := -2; k < 64; k++ {
			tids, err := ix.Tree.Search(s.Pool, int64(k))
			if err != nil {
				t.Fatal(err)
			}
			var have int
			for _, r := range m.rows {
				if !r[ix.Col].IsNull() && r[ix.Col].I == int64(k) {
					have++
				}
			}
			if len(tids) != have {
				t.Fatalf("%s: index %s has %d entries for key %d, the table %d", what, ix.Name, len(tids), k, have)
			}
		}
	}
}

// propStatement runs one random UPDATE or DELETE on both sides.
func propStatement(t *testing.T, s *Session, g *propGen, m *propModel, what string) {
	t.Helper()
	p := g.pred()
	where := ""
	if w := p.SQL(); w != "" {
		where = " WHERE " + w
	}
	var stmt string
	var want int64
	if g.rng.Intn(2) == 0 {
		stmt = "DELETE FROM p" + where
		want = m.delete(p)
	} else {
		sets := g.sets()
		var parts []string
		for _, st := range sets {
			parts = append(parts, st.sql)
		}
		stmt = "UPDATE p SET " + strings.Join(parts, ", ") + where
		want = m.update(p, sets)
	}
	got, err := s.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %s: %v", what, stmt, err)
	}
	if got != want {
		plan, _ := s.Explain(stmt)
		t.Fatalf("%s: %s affected %d rows, the oracle %d\n%s", what, stmt, got, want, plan)
	}
	propCheck(t, s, m, what+": after "+stmt)
}

func (g *propGen) insert(t *testing.T, s *Session, m *propModel, n int) {
	t.Helper()
	var vals []string
	for i := 0; i < n; i++ {
		r := g.row()
		m.rows = append(m.rows, r)
		vals = append(vals, tupleSQL(r))
	}
	mustExec(t, s, "INSERT INTO p VALUES "+strings.Join(vals, ", "))
}

func TestDifferentialDML(t *testing.T) {
	seeds := 48
	if testing.Short() {
		seeds = 12
	}
	ixBefore, seqBefore := mVictimScanIndex.Value(), mVictimScanSeq.Value()
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := &propGen{rng: rand.New(rand.NewSource(int64(seed))), keys: 12 + 12*(seed%4)}
			s := newSession(t)
			mustExec(t, s, "CREATE TABLE p (a INT, b INT, c FLOAT, d TEXT)")
			m := &propModel{}
			g.insert(t, s, m, 150+g.rng.Intn(450))
			// Four physical designs: no index, one, two, and two without
			// statistics (the optimizer plans from its defaults).
			design := seed % 4
			if design >= 1 {
				mustExec(t, s, "CREATE INDEX p_a ON p (a)")
			}
			if design >= 2 {
				mustExec(t, s, "CREATE INDEX p_b ON p (b)")
			}
			if design != 3 {
				mustExec(t, s, "ANALYZE p")
			}
			if seed%8 >= 4 {
				// Cheap random reads push the choice toward index scans even
				// for wide ranges; the access path is cost-based either way.
				s.Params.RandomPageCost = s.Params.SeqPageCost / 4
			}
			propCheck(t, s, m, "loaded")

			for i := 0; i < 8; i++ {
				propStatement(t, s, g, m, fmt.Sprintf("autocommit %d", i))
			}

			// Inside an explicit transaction the statements run against
			// pending versions: rows this transaction inserted must be
			// found, rows it deleted or superseded must not.
			before := m.clone()
			mustExec(t, s, "BEGIN")
			g.insert(t, s, m, 20)
			if s.readVisibility() == nil {
				t.Fatal("a transaction with pending inserts must scan under a visibility filter")
			}
			propCheck(t, s, m, "in txn: after insert")
			for i := 0; i < 8; i++ {
				propStatement(t, s, g, m, fmt.Sprintf("in txn %d", i))
				if i == 3 {
					g.insert(t, s, m, 10)
				}
			}
			if g.rng.Intn(2) == 0 {
				mustExec(t, s, "COMMIT")
				propCheck(t, s, m, "after commit")
			} else {
				mustExec(t, s, "ROLLBACK")
				m = before
				propCheck(t, s, m, "after rollback")
			}
			propStatement(t, s, g, m, "after txn")
		})
	}
	if ix, seq := mVictimScanIndex.Value()-ixBefore, mVictimScanSeq.Value()-seqBefore; ix == 0 || seq == 0 {
		t.Errorf("the property test must exercise both access paths: %d index victim scans, %d sequential", ix, seq)
	}
}
