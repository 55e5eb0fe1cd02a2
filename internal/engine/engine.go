// Package engine is the database engine facade: it wires the catalog,
// buffer pool, optimizer, and executor together behind a SQL interface.
//
// A Database (disk + catalog) is independent of any virtual machine and
// can be shared; a Session binds a database to one VM, sizing its buffer
// pool and working memory from the VM's memory share. This split is what
// lets the virtualization-design experiments measure the same data under
// many different resource allocations without reloading it.
package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"dbvirt/internal/buffer"
	"dbvirt/internal/catalog"
	"dbvirt/internal/executor"
	"dbvirt/internal/memo"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
	"dbvirt/internal/vm"
	"dbvirt/internal/wal"
)

// Database is the VM-independent part of an engine instance: the simulated
// disk, the catalog describing what is on it, the multiversion state for
// snapshot-isolation transactions, and (when opened durably or via
// EnableLogging) the write-ahead log attachment.
type Database struct {
	Disk    *storage.DiskManager
	Catalog *catalog.Catalog

	mvcc *mvccState
	dur  *durability

	// Specs holds core.Intern's table of the workload specs that run
	// against this database, so that they are released with it.
	Specs atomic.Value
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{Disk: storage.NewDiskManager(), Catalog: catalog.New(), mvcc: newMVCCState()}
}

// Config tunes how a session divides its VM's memory.
type Config struct {
	// BufferFrac is the fraction of VM memory given to the buffer pool.
	BufferFrac float64
	// WorkMemFrac is the fraction of VM memory given to each sort/hash
	// operation (work_mem).
	WorkMemFrac float64
	// Executor is ignored: the batch executor is the only one.
	//
	// Deprecated: deleted with executor.Mode when the benchmark harness
	// that still sets it is re-baselined (ROADMAP.md, item 1).
	Executor executor.Mode
}

// DefaultConfig mirrors a conventional analytics-tuned DBMS split: 75%
// buffer pool, 15% work_mem. The machine model is memory-scaled together
// with the data, so work_mem must scale too (the paper's testbed would
// run PostgreSQL with a work_mem far above its default for TPC-H).
func DefaultConfig() Config {
	return Config{BufferFrac: 0.75, WorkMemFrac: 0.15}
}

// ExecObserver receives one record per executed statement: the raw SQL
// text, the optimizer's predicted seconds under the session's parameters
// (0 when the parameters are not time-calibrated), and the VM-simulated
// actual seconds. Implementations feed per-tenant workload sketches and
// calibration-drift residuals; one that keys on the statement normalizes
// it with sql.Normalize first. Observers must be cheap and must not call
// back into the session.
type ExecObserver interface {
	ObserveExec(sql string, predictedSeconds, actualSeconds float64)
}

// Session executes SQL for one database inside one virtual machine.
type Session struct {
	DB     *Database
	VM     *vm.VM
	Pool   *buffer.Pool
	Config Config
	// Params are the planning parameters used by Query/Explain; they
	// start as PostgreSQL-like defaults sized to this session's memory
	// and may be replaced with calibrated values.
	Params optimizer.Params
	// Observer, when non-nil, is notified after every executed SELECT
	// (RunStatement) and every EXPLAIN ANALYZE with the statement's
	// predicted and actual simulated seconds.
	Observer ExecObserver

	// txn is the open transaction, nil outside one. Implicit transactions
	// (autocommit DML) exist only for the duration of runDML.
	txn *Txn

	// shape is the token buffer RunStatement scans every statement into;
	// stmts holds its statement templates by shape key (stmtcache.go).
	shape sql.Shape
	stmts memo.Gen[string, *stmtTemplate]
}

// NewSession binds a database to a VM.
func NewSession(db *Database, v *vm.VM, cfg Config) (*Session, error) {
	if cfg.BufferFrac <= 0 || cfg.BufferFrac > 1 {
		return nil, fmt.Errorf("engine: BufferFrac %g out of range", cfg.BufferFrac)
	}
	if cfg.WorkMemFrac <= 0 || cfg.WorkMemFrac > 1 {
		return nil, fmt.Errorf("engine: WorkMemFrac %g out of range", cfg.WorkMemFrac)
	}
	frames, workMem := MemoryParams(v.Machine().Config().MemBytes, v.Shares().Memory, cfg)
	pool, err := buffer.NewPool(db.Disk, v, frames)
	if err != nil {
		return nil, err
	}
	params := optimizer.DefaultParams()
	params.EffectiveCacheSizePages = int64(frames)
	params.WorkMemBytes = workMem
	return &Session{DB: db, VM: v, Pool: pool, Config: cfg, Params: params,
		stmts: memo.Gen[string, *stmtTemplate]{Cap: stmtCacheCap, Evict: mStmtEvict}}, nil
}

// MemoryParams sizes a session on a VM holding share of a machine's
// memBytes: the buffer pool's frames (the planner's effective cache size)
// and work_mem. Calibration grids fill P(R)'s memory fields from it too.
func MemoryParams(memBytes int64, share float64, cfg Config) (frames int, workMem int64) {
	vmBytes := int64(float64(memBytes) * share) // vm.VM.MemBytes
	workMem = int64(float64(vmBytes) * cfg.WorkMemFrac)
	if workMem < 64<<10 {
		workMem = 64 << 10
	}
	return buffer.PoolSize(vmBytes, cfg.BufferFrac), workMem
}

// ExecContext builds the executor context for this session's statements:
// its pool, VM and work_mem, and the visibility filter of its snapshot. The
// filter is nil whenever the version map is empty (no DML in flight
// anywhere), which is the zero-overhead path every read-only workload
// takes.
func (s *Session) ExecContext() *executor.Context {
	return &executor.Context{
		Pool: s.Pool, VM: s.VM, WorkMemBytes: s.Params.WorkMemBytes, Vis: s.readVisibility(),
	}
}

// Exec runs any statement that returns no rows — DDL (CREATE TABLE, CREATE
// INDEX), DML (INSERT, UPDATE, DELETE), transaction control (BEGIN, COMMIT,
// ROLLBACK), CHECKPOINT and ANALYZE — and returns the number of rows
// affected. SELECT and EXPLAIN go through Query and Explain.
func (s *Session) Exec(src string) (int64, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return 0, err
	}
	return s.ExecStmt(stmt)
}

// ExecStmt is Exec for a statement already parsed.
func (s *Session) ExecStmt(stmt sql.Statement) (int64, error) { return s.exec(stmt, nil) }

// exec runs a parsed statement for Exec and RunStatement. victims, when
// non-nil, is an UPDATE's or DELETE's victim query already bound and
// prepared (bindVictims); otherwise exec binds it.
func (s *Session) exec(stmt sql.Statement, victims *optimizer.PreparedQuery) (int64, error) {
	switch x := stmt.(type) {
	case *sql.CreateTableStmt:
		cols := make([]catalog.Column, len(x.Columns))
		for i, c := range x.Columns {
			cols[i] = catalog.Column{Name: c.Name, Kind: c.Kind}
		}
		if _, err := s.DB.Catalog.CreateTable(s.DB.Disk, x.Name, catalog.Schema{Cols: cols}); err != nil {
			return 0, err
		}
		wcols := make([]wal.ColumnDef, len(cols))
		for i, c := range cols {
			wcols[i] = wal.ColumnDef{Name: c.Name, Kind: uint8(c.Kind)}
		}
		return 0, s.logDDL(&wal.Record{Type: wal.RecCreateTable, Table: x.Name, Cols: wcols})

	case *sql.CreateIndexStmt:
		if _, err := s.DB.Catalog.CreateIndex(s.DB.Disk, s.Pool, x.Name, x.Table, x.Column); err != nil {
			return 0, err
		}
		return 0, s.logDDL(&wal.Record{Type: wal.RecCreateIndex, Table: x.Table, Index: x.Name, Column: x.Column})

	// DML and transaction ends change rows, which cached columnar blocks
	// hold, but no statistics or schema, which plans read: they leave the
	// catalog version alone.
	case *sql.InsertStmt:
		defer s.DB.Catalog.ClearBlocks()
		return s.runDML(func() (int64, error) { return s.execInsert(x) })

	case *sql.DeleteStmt:
		defer s.DB.Catalog.ClearBlocks()
		return s.runDML(func() (int64, error) { return s.execDelete(x, victims) })

	case *sql.UpdateStmt:
		defer s.DB.Catalog.ClearBlocks()
		return s.runDML(func() (int64, error) { return s.execUpdate(x, victims) })

	case *sql.BeginStmt:
		return 0, s.Begin()

	case *sql.CommitStmt:
		defer s.DB.Catalog.ClearBlocks()
		return 0, s.Commit()

	case *sql.RollbackStmt:
		defer s.DB.Catalog.ClearBlocks()
		return 0, s.Rollback()

	case *sql.CheckpointStmt:
		return 0, s.CheckpointDurable()

	case *sql.AnalyzeStmt:
		if x.Table != "" {
			return 0, s.Analyze(x.Table)
		}
		for _, t := range s.DB.Catalog.Tables() {
			if err := catalog.Analyze(s.Pool, t); err != nil {
				return 0, err
			}
		}
		s.DB.Catalog.Invalidate()
		return 0, nil

	case *sql.SelectStmt, *sql.ExplainStmt:
		return 0, fmt.Errorf("engine: use Query for SELECT/EXPLAIN")

	default:
		return 0, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func (s *Session) execInsert(ins *sql.InsertStmt) (int64, error) {
	t, err := s.DB.Catalog.Table(ins.Table)
	if err != nil {
		return 0, err
	}
	var count int64
	for _, rowExprs := range ins.Rows {
		if len(rowExprs) != len(t.Schema.Cols) {
			return count, fmt.Errorf("engine: INSERT row has %d values, table %q has %d columns",
				len(rowExprs), ins.Table, len(t.Schema.Cols))
		}
		tup := make(storage.Tuple, len(rowExprs))
		for i, e := range rowExprs {
			v, err := evalConstExpr(e)
			if err != nil {
				return count, err
			}
			if !v.IsNull() && !types.Compatible(v.Kind, t.Schema.Cols[i].Kind) {
				return count, fmt.Errorf("engine: value %v is not valid for %s column %q",
					v, t.Schema.Cols[i].Kind, t.Schema.Cols[i].Name)
			}
			tup[i] = coerce(v, t.Schema.Cols[i].Kind)
		}
		if _, err := s.txnInsert(t, tup); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// InsertTuple appends one tuple to a table, maintaining its indexes. It is
// also the bulk-load entry point used by the workload generators.
func (s *Session) InsertTuple(t *catalog.Table, tup storage.Tuple) error {
	s.VM.AccountCPU(executor.OpsPerTuple)
	tid, err := t.Heap.Insert(s.Pool, tup)
	if err != nil {
		return err
	}
	for _, ix := range t.Indexes {
		v := tup[ix.Col]
		if v.IsNull() {
			continue
		}
		s.VM.AccountCPU(executor.OpsPerIndexTuple)
		if err := ix.Tree.Insert(s.Pool, v.I, tid); err != nil {
			return err
		}
	}
	return nil
}

// evalConstExpr evaluates a constant INSERT expression.
func evalConstExpr(e sql.Expr) (types.Value, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Value, nil
	case *sql.NegExpr:
		v, err := evalConstExpr(x.E)
		if err != nil {
			return types.Null, err
		}
		switch v.Kind {
		case types.KindInt:
			return types.NewInt(-v.I), nil
		case types.KindFloat:
			return types.NewFloat(-v.F), nil
		default:
			return types.Null, fmt.Errorf("engine: cannot negate %s", v.Kind)
		}
	default:
		return types.Null, fmt.Errorf("engine: INSERT values must be literals, got %T", e)
	}
}

// coerce adapts a literal to the column kind (int literals into float or
// date columns).
func coerce(v types.Value, k types.Kind) types.Value {
	if v.IsNull() || v.Kind == k {
		return v
	}
	switch {
	case k == types.KindFloat && v.Kind == types.KindInt:
		return types.NewFloat(float64(v.I))
	case k == types.KindDate && v.Kind == types.KindInt:
		return types.NewDate(v.I)
	case k == types.KindInt && v.Kind == types.KindFloat && v.F == float64(int64(v.F)):
		return types.NewInt(int64(v.F))
	default:
		return v
	}
}

// Checkpoint writes all dirty buffered pages to the simulated disk. A
// Database may be shared by sessions with independent buffer pools (no
// cache coherence is provided); after loading data through one session,
// Checkpoint must be called before another session reads the database.
func (s *Session) Checkpoint() error { return s.Pool.FlushAll() }

// Analyze recomputes statistics for one table. The refreshed statistics
// change what the optimizer would estimate, so the catalog version is
// bumped to invalidate any cached plans.
func (s *Session) Analyze(table string) error {
	t, err := s.DB.Catalog.Table(table)
	if err != nil {
		return err
	}
	if err := catalog.Analyze(s.Pool, t); err != nil {
		return err
	}
	s.DB.Catalog.Invalidate()
	return nil
}

// Plan binds and optimizes a SELECT under explicit parameters without
// executing it — the virtualization-aware what-if mode.
func (s *Session) Plan(src string, p optimizer.Params) (*optimizer.Plan, error) {
	sel, err := sql.ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return s.planSelect(sel, p)
}

// planSelect binds and optimizes a parsed SELECT.
func (s *Session) planSelect(sel *sql.SelectStmt, p optimizer.Params) (*optimizer.Plan, error) {
	q, err := plan.Bind(sel, s.DB.Catalog)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(q, p)
}

// Query plans (under the session's parameters) and executes a SELECT.
func (s *Session) Query(src string) (*executor.Result, error) {
	pl, err := s.Plan(src, s.Params)
	if err != nil {
		return nil, err
	}
	return executor.Run(pl, s.ExecContext())
}

// QueryRows runs a SELECT and materializes all rows.
func (s *Session) QueryRows(src string) ([]plan.Row, []string, error) {
	res, err := s.Query(src)
	if err != nil {
		return nil, nil, err
	}
	rows, err := res.Collect()
	return rows, res.Columns, err
}

// Explain returns the plan of a SELECT (or EXPLAIN SELECT) as text. For an
// UPDATE or DELETE it returns the victim-scan plan — the access path the
// write would take — under an "Update on t" / "Delete on t" header, without
// executing anything.
func (s *Session) Explain(src string) (string, error) {
	trimmed := strings.TrimSpace(src)
	stmt, err := sql.Parse(trimmed)
	if err != nil {
		return "", err
	}
	var sel *sql.SelectStmt
	analyze := false
	switch x := stmt.(type) {
	case *sql.UpdateStmt:
		return s.explainDML("Update", x)
	case *sql.DeleteStmt:
		return s.explainDML("Delete", x)
	case *sql.ExplainStmt:
		sel, analyze = x.Query, x.Analyze
	case *sql.SelectStmt:
		sel = x
	default:
		return "", fmt.Errorf("sql: expected SELECT statement, got %T", stmt)
	}
	pl, err := s.planSelect(sel, s.Params)
	if err != nil {
		return "", err
	}
	if analyze {
		return s.explainAnalyzePlan(trimmed, pl)
	}
	return pl.Explain(), nil
}

// explainAnalyzePlan executes an already-optimized plan with statistics
// collection and renders the annotated tree. src is the statement text
// reported to the session's Observer alongside the predicted-vs-actual
// seconds pair.
func (s *Session) explainAnalyzePlan(src string, pl *optimizer.Plan) (string, error) {
	ctx := s.ExecContext()
	ctx.Stats = executor.NewStatsCollector()
	start := s.VM.Snapshot()
	res, err := executor.Run(pl, ctx)
	if err != nil {
		return "", err
	}
	var produced int64
	for {
		_, ok, err := res.Next()
		if err != nil {
			res.Close()
			return "", err
		}
		if !ok {
			break
		}
		produced++
	}
	res.Close()
	used := s.VM.Since(start)

	// Per-node annotation: measured (inclusive) simulated time and rows
	// next to the optimizer's estimate, so estimate vs actual is diffable
	// operator by operator, PostgreSQL-style.
	overlap := s.VM.Machine().Config().Overlap
	out := pl.ExplainAnnotated(func(n optimizer.Node) string {
		st := ctx.Stats.For(n)
		if st == nil {
			return "never executed"
		}
		actual := fmt.Sprintf("actual time=%.6fs rows=%d loops=%d",
			st.Seconds(overlap), st.Rows, st.Loops)
		if pl.Params.Calibrated() {
			return fmt.Sprintf("est time=%.6fs, %s",
				pl.Params.EstimateSeconds(n.Cost()), actual)
		}
		return actual
	})
	actual := s.VM.ElapsedSince(start)
	out += fmt.Sprintf(
		"actual: %d rows, %.6fs simulated (cpu %.6fs, io %.6fs; %d seq + %d rand reads, %d writes)\n",
		produced, actual, used.CPUSeconds, used.IOSeconds,
		used.SeqReads, used.RandReads, used.Writes)
	if s.Observer != nil {
		var predicted float64
		if pl.Params.Calibrated() {
			predicted = pl.EstimatedSeconds()
		}
		s.Observer.ObserveExec(src, predicted, actual)
	}
	return out, nil
}

// RunStatement executes one workload statement for its side effects and
// cost, returning the number of rows a SELECT produced or any other
// statement affected. Its parse and bind step is memoized per statement
// shape, and its plan is re-costed from the shape's prepared query rather
// than enumerated again (stmtcache.go).
func (s *Session) RunStatement(src string) (int64, error) {
	st, err := s.statement(src)
	if err != nil {
		return 0, err
	}
	if _, ok := st.tpl.Stmt.(*sql.SelectStmt); !ok {
		return s.exec(st.tpl.Stmt, st.pq)
	}
	pl, err := s.planQuery(nil, st.pq)
	if err != nil {
		return 0, err
	}
	// The prediction is only computed when someone is listening: the
	// estimate walk is wasted work on the hot measured-model path.
	var predicted float64
	if s.Observer != nil && pl.Params.Calibrated() {
		predicted = pl.EstimatedSeconds()
	}
	start := s.VM.Snapshot()
	res, err := executor.Run(pl, s.ExecContext())
	if err != nil {
		return 0, err
	}
	// The plan reads the template's constants: drain it before returning.
	defer res.Close()
	var n int64
	for {
		_, ok, err := res.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			if s.Observer != nil {
				s.Observer.ObserveExec(src, predicted, s.VM.ElapsedSince(start))
			}
			return n, nil
		}
		n++
	}
}

// planQuery plans a bound query under the session's parameters: through
// a template's prepared query pq, or afresh when pq is nil.
func (s *Session) planQuery(q *plan.Query, pq *optimizer.PreparedQuery) (*optimizer.Plan, error) {
	if pq != nil {
		return pq.Optimize(s.Params)
	}
	return optimizer.Optimize(q, s.Params)
}

// RunWorkload executes a sequence of statements, returning the simulated
// elapsed seconds they took in this session's VM.
func (s *Session) RunWorkload(statements []string) (float64, error) {
	start := s.VM.Snapshot()
	for i, stmt := range statements {
		if _, err := s.RunStatement(stmt); err != nil {
			return s.VM.ElapsedSince(start), fmt.Errorf("engine: workload statement %d: %w", i, err)
		}
	}
	return s.VM.ElapsedSince(start), nil
}
