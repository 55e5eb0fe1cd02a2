package engine

import (
	"dbvirt/internal/obs"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
)

// The session statement cache. RunStatement scans each statement once into
// a shape key — its tokens with every literal reduced to its kind — and
// keeps, per key, the statement parsed, bound and prepared once (a
// template). A statement of a known shape only has its parameter values
// written into the template's literals and their bound constants; the
// template's optimizer.PreparedQuery then re-costs its recorded plan
// along the literals and P(R), and enumerates again only when a choice
// flips (DESIGN.md §9). The plan is the one a fresh Optimize would choose.
//
// Templates are private to their session and mutated only inside the
// RunStatement call that uses them, which drains its result before
// returning; Query, Explain and the what-if path never see one. The
// executor only reads plan nodes, so a plan may run again. A template
// re-binds and re-prepares after any catalog version change; DML does not
// change the version.
//
// One template is kept per key. A statement whose fixed literals (a LIMIT
// count, say) differ from the template's misses and replaces it. A
// template's names and literal texts point into the text it was parsed
// from, so a cached template keeps that whole statement text alive until
// its shape is evicted.

// hit|miss count RunStatement calls that found or compiled a template,
// evict the shapes dropped by generation turnover.
var (
	mStmtHit   = obs.Global.Counter("engine.stmt_cache.hit")
	mStmtMiss  = obs.Global.Counter("engine.stmt_cache.miss")
	mStmtEvict = obs.Global.Counter("engine.stmt_cache.evict")
)

// stmtCacheCap is the shapes a session keeps per generation (a memo.Gen,
// so at most twice this many): the ledger's workloads use 5 (oltp) and 8
// (olap).
const stmtCacheCap = 64

// stmtTemplate is one cached statement: the parsed template and, for a
// SELECT, UPDATE or DELETE, the query bound from it at catalog version
// version and prepared, with the constants its parameters became (an
// UPDATE's or DELETE's victim query).
type stmtTemplate struct {
	tpl     *sql.Template
	version uint64
	pq      *optimizer.PreparedQuery
	params  []plan.Param
}

// statement returns src parsed and bound, from the session's cache when a
// template of its shape exists. Errors are the uncached path's: Parse's,
// then Bind's.
func (s *Session) statement(src string) (*stmtTemplate, error) {
	if err := s.shape.Scan(src); err != nil {
		return nil, err
	}
	key := string(s.shape.Key())
	// A value invalid for its kind fails Set: the parse below reports it.
	if st, ok := s.stmts.Get(key); ok && st.tpl.Matches(&s.shape) && st.tpl.Set(&s.shape) {
		mStmtHit.Inc()
		if st.version != s.DB.Catalog.Version() {
			return st, s.bind(st)
		}
		for _, p := range st.params {
			p.Const.Val = p.Lit.Value
		}
		return st, nil
	}
	mStmtMiss.Inc()
	tpl, err := sql.ParseTemplate(&s.shape)
	if err != nil {
		return nil, err
	}
	st := &stmtTemplate{tpl: tpl}
	if err := s.bind(st); err != nil {
		return nil, err
	}
	s.stmts.Put(key, st)
	return st, nil
}

// bind binds and prepares a template's statement against the current
// catalog. On failure the template keeps its old binding and version, so
// the next use binds again.
func (s *Session) bind(st *stmtTemplate) error {
	version := s.DB.Catalog.Version()
	var q *plan.Query
	var params []plan.Param
	var err error
	switch x := st.tpl.Stmt.(type) {
	case *sql.SelectStmt:
		q, params, err = plan.BindParams(x, s.DB.Catalog)
	case *sql.UpdateStmt, *sql.DeleteStmt:
		q, params, err = s.bindVictims(x)
	}
	if err != nil {
		return err
	}
	st.version, st.params = version, params
	if q != nil {
		st.pq = optimizer.Prepare(q, params)
	}
	return nil
}
