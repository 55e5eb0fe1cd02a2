package engine

import (
	"fmt"

	"dbvirt/internal/executor"
	"dbvirt/internal/obs"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// DELETE and UPDATE find their victims the way a SELECT finds its rows: the
// statement's WHERE (and an UPDATE's SET expressions) is bound once as a
// single-relation query, the optimizer chooses the access path under the
// session's Params — an IndexScan when the predicate is selective on an
// indexed column, a SeqScan otherwise — and executor.ScanLeaf runs it
// against the statement's snapshot. Qualifying rows are then deleted or
// rewritten through the transaction machinery in txn.go, which handles index
// maintenance, undo, and WAL logging. Statistics go stale until the next
// ANALYZE, as in any real system.

var (
	mVictimScanIndex = obs.Global.Counter("engine.dml.victim_scan.index")
	mVictimScanSeq   = obs.Global.Counter("engine.dml.victim_scan.seq")
	mVictims         = obs.Global.Counter("engine.dml.victims")
)

// bindVictims binds an UPDATE's or DELETE's victim query, `SELECT items
// FROM table WHERE where`, where an UPDATE's items are its SET expressions
// and a DELETE's is *. It also returns the query's literals with the
// Consts they became (plan.BindParams).
func (s *Session) bindVictims(stmt sql.Statement) (*plan.Query, []plan.Param, error) {
	var sel *sql.SelectStmt
	switch x := stmt.(type) {
	case *sql.UpdateStmt:
		sel = victimSelect(x.Table, x.Where, setItems(x))
	case *sql.DeleteStmt:
		sel = victimSelect(x.Table, x.Where, starItem)
	default:
		return nil, nil, fmt.Errorf("engine: %T has no victim scan", stmt)
	}
	q, params, err := plan.BindParams(sel, s.DB.Catalog)
	if err != nil {
		return nil, nil, err
	}
	if q.Grouped {
		return nil, nil, fmt.Errorf("engine: aggregates are not allowed in UPDATE or DELETE")
	}
	return q, params, nil
}

func victimSelect(table string, where sql.Expr, items []sql.SelectItem) *sql.SelectStmt {
	return &sql.SelectStmt{Items: items, From: []sql.FromItem{&sql.TableRef{Table: table}}, Where: where}
}

// planVictimScan optimizes a statement's victim query under the session's
// parameters: through its template's prepared query pq, or bound afresh
// when pq is nil. The returned plan's Root is the scan subtree alone (the
// projection is stripped: victims are whole tuples), and its Query.Select
// holds the bound items.
func (s *Session) planVictimScan(stmt sql.Statement, pq *optimizer.PreparedQuery) (*optimizer.Plan, error) {
	var q *plan.Query
	if pq == nil {
		var err error
		if q, _, err = s.bindVictims(stmt); err != nil {
			return nil, err
		}
	}
	pl, err := s.planQuery(q, pq)
	if err != nil {
		return nil, err
	}
	proj, ok := pl.Root.(*optimizer.Project)
	if !ok {
		return nil, fmt.Errorf("engine: unexpected victim-scan plan root %T", pl.Root)
	}
	pl.Root = proj.Input
	return pl, nil
}

var starItem = []sql.SelectItem{{Star: true}}

// setItems returns an UPDATE's SET expressions as a select list.
func setItems(upd *sql.UpdateStmt) []sql.SelectItem {
	items := make([]sql.SelectItem, len(upd.Sets))
	for i, sc := range upd.Sets {
		items[i] = sql.SelectItem{Expr: sc.Value}
	}
	return items
}

// explainDML renders the victim-scan plan of an UPDATE or DELETE under a
// "<verb> on <table>" header.
func (s *Session) explainDML(verb string, stmt sql.Statement) (string, error) {
	pl, err := s.planVictimScan(stmt, nil)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s on %s\n%s", verb, pl.Query.Rels[0].Name, pl.Explain()), nil
}

// execDelete removes all rows matching the predicate, maintaining every
// index, and returns the number of rows deleted. pq is the prepared
// victim query, or nil to bind it.
func (s *Session) execDelete(del *sql.DeleteStmt, pq *optimizer.PreparedQuery) (int64, error) {
	pl, err := s.planVictimScan(del, pq)
	if err != nil {
		return 0, err
	}
	victims, err := s.collectVictims(pl)
	if err != nil {
		return 0, err
	}
	t := pl.Query.Rels[0].Table
	for _, v := range victims {
		if err := s.txnDelete(t, v.tid, v.tup); err != nil {
			return 0, err
		}
	}
	return int64(len(victims)), nil
}

// dmlVictim is one row a DELETE or UPDATE statement will touch.
type dmlVictim struct {
	tid storage.TID
	tup storage.Tuple
}

// collectVictims runs the victim scan and returns the rows visible to the
// current transaction's snapshot that match the predicate. Victims are
// collected before any mutation: the heap and index must not change
// mid-scan, and a statement must not see its own inserts (the Halloween
// problem).
func (s *Session) collectVictims(pl *optimizer.Plan) ([]dmlVictim, error) {
	leaf := pl.Root
	if f, ok := leaf.(*optimizer.FilterNode); ok {
		leaf = f.Input
	}
	if _, ok := leaf.(*optimizer.IndexScan); ok {
		mVictimScanIndex.Inc()
	} else {
		mVictimScanSeq.Inc()
	}
	var victims []dmlVictim
	err := executor.ScanLeaf(pl.Root, s.ExecContext(), func(tid storage.TID, tup storage.Tuple) error {
		victims = append(victims, dmlVictim{tid: tid, tup: tup})
		return nil
	})
	mVictims.Add(int64(len(victims)))
	return victims, err
}

// execUpdate rewrites all rows matching the predicate. The updated row is
// deleted and re-inserted (possibly at a new TID), with index maintenance
// on both sides. pq is the prepared victim query, or nil to bind it.
func (s *Session) execUpdate(upd *sql.UpdateStmt, pq *optimizer.PreparedQuery) (int64, error) {
	pl, err := s.planVictimScan(upd, pq)
	if err != nil {
		return 0, err
	}
	t := pl.Query.Rels[0].Table
	type setter struct {
		col  int
		ev   func(plan.Row) (types.Value, error)
		kind types.Kind
	}
	setters := make([]setter, 0, len(upd.Sets))
	seen := map[int]bool{}
	for i, sc := range upd.Sets {
		ci := t.Schema.ColIndex(sc.Column)
		if ci < 0 {
			return 0, fmt.Errorf("engine: table %q has no column %q", upd.Table, sc.Column)
		}
		if seen[ci] {
			return 0, fmt.Errorf("engine: column %q assigned twice", sc.Column)
		}
		seen[ci] = true
		bound := pl.Query.Select[i].E
		kind := t.Schema.Cols[ci].Kind
		if bk := bound.ResultKind(); bk != types.KindNull && !types.Compatible(bk, kind) {
			return 0, fmt.Errorf("engine: cannot assign %s to %s column %q", bk, kind, sc.Column)
		}
		ev, err := plan.CompileVec(bound, pl.Root.Layout(), s.VM)
		if err != nil {
			return 0, err
		}
		setters = append(setters, setter{col: ci, ev: plan.OneRow(ev), kind: kind})
	}

	victims, err := s.collectVictims(pl)
	if err != nil {
		return 0, err
	}

	for _, v := range victims {
		newTup := v.tup.Clone()
		for _, st := range setters {
			val, err := st.ev(plan.Row(v.tup))
			if err != nil {
				return 0, err
			}
			newTup[st.col] = coerce(val, st.kind)
		}
		if err := s.txnDelete(t, v.tid, v.tup); err != nil {
			return 0, err
		}
		if _, err := s.txnInsert(t, newTup); err != nil {
			return 0, err
		}
	}
	return int64(len(victims)), nil
}
