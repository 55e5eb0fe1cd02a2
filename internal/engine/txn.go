package engine

import (
	"fmt"
	"sync"

	"dbvirt/internal/catalog"
	"dbvirt/internal/executor"
	"dbvirt/internal/obs"
	"dbvirt/internal/storage"
	"dbvirt/internal/wal"
)

// Snapshot-isolation transactions over the heap engine.
//
// The design keeps the read-only paths — everything the golden figures
// measure — at exactly zero overhead: tuple visibility is tracked in an
// in-memory version map keyed by (file, TID), and a tuple with no entry
// is "frozen" (created by a committed transaction every snapshot sees,
// not deleted). Bulk-loaded data never enters the map, committed inserts
// are frozen as soon as no live snapshot predates them, and rolled-back
// work removes its entries, so a database that has settled after DML has
// an empty map and scans run with a nil visibility filter.
//
// Writes are multiversion in the logical sense but single-copy in the
// physical sense: an insert places the tuple in the heap immediately
// (tagged xmin = creator), and a delete only stamps xmax = deleter.
// Physical removal — dead-marking the slot and dropping index entries —
// is deferred until commit, and further until no active snapshot can
// still see the old row (a miniature vacuum). Because slotted pages
// never reclaim space, deferred dead-marking cannot shift where later
// inserts land, which is what makes the page layout after crash
// recovery a deterministic function of the log.

// Txn metrics.
var (
	mTxnBegin     = obs.Global.Counter("txn.begin")
	mTxnCommit    = obs.Global.Counter("txn.commit")
	mTxnAbort     = obs.Global.Counter("txn.abort")
	mTxnImplicit  = obs.Global.Counter("txn.implicit")
	mTxnUndoOps   = obs.Global.Counter("txn.undo.ops")
	mTxnStmtAbort = obs.Global.Counter("txn.stmt_rollbacks")
	mTxnVacuumed  = obs.Global.Counter("txn.vacuum.tuples")
)

// version records which transactions created and deleted one tuple.
// Tuples without a version entry are frozen: created before the MVCC
// horizon and never deleted.
type version struct {
	xmin uint64 // creating txn; 0 = frozen
	xmax uint64 // deleting txn; 0 = live
}

// snapshot fixes what a reader sees: every transaction whose commit
// sequence number is <= seq, plus its own uncommitted writes.
type snapshot struct {
	seq uint64
	xid uint64 // 0 for plain reads outside a transaction
}

// txnOp is one undoable operation, kept in a transaction's undo log (in
// execution order) and reconstructed from the WAL during recovery.
type txnOp struct {
	insert bool
	table  *catalog.Table
	tid    storage.TID
	tuple  storage.Tuple // full image: redo for inserts, undo for deletes
}

// pendingCommit is a committed transaction whose physical cleanup
// (freezing inserts, dead-marking deletes) waits for older snapshots.
type pendingCommit struct {
	seq uint64
	ops []txnOp
}

// mvccState is the per-Database multiversion state.
type mvccState struct {
	mu        sync.RWMutex
	nextXID   uint64
	nextSeq   uint64
	committed map[uint64]uint64 // xid -> commit sequence
	versions  map[storage.FileID]map[storage.TID]version
	snapshots map[uint64]int // active snapshot seq -> refcount
	pending   []pendingCommit
}

func newMVCCState() *mvccState {
	return &mvccState{
		nextXID:   1,
		nextSeq:   1,
		committed: make(map[uint64]uint64),
		versions:  make(map[storage.FileID]map[storage.TID]version),
		snapshots: make(map[uint64]int),
	}
}

// allocXID hands out the next transaction id.
func (m *mvccState) allocXID() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	x := m.nextXID
	m.nextXID++
	return x
}

// takeSnapshot returns the current read horizon.
func (m *mvccState) takeSnapshot(xid uint64) snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return snapshot{seq: m.nextSeq - 1, xid: xid}
}

// register pins a snapshot so vacuum defers cleanup it could observe.
func (m *mvccState) register(s snapshot) {
	m.mu.Lock()
	m.snapshots[s.seq]++
	m.mu.Unlock()
}

// unregister releases a pinned snapshot.
func (m *mvccState) unregister(s snapshot) {
	m.mu.Lock()
	if m.snapshots[s.seq]--; m.snapshots[s.seq] <= 0 {
		delete(m.snapshots, s.seq)
	}
	m.mu.Unlock()
}

// minSnapshotLocked returns the oldest pinned snapshot sequence, or
// ok=false when none is pinned. Caller holds m.mu.
func (m *mvccState) minSnapshotLocked() (uint64, bool) {
	var min uint64
	found := false
	for seq := range m.snapshots {
		if !found || seq < min {
			min, found = seq, true
		}
	}
	return min, found
}

// setVersion stores (or overwrites) the version entry of one tuple.
func (m *mvccState) setVersion(fid storage.FileID, tid storage.TID, v version) {
	m.mu.Lock()
	f := m.versions[fid]
	if f == nil {
		f = make(map[storage.TID]version)
		m.versions[fid] = f
	}
	f[tid] = v
	m.mu.Unlock()
}

// getVersion reads one tuple's version entry.
func (m *mvccState) getVersion(fid storage.FileID, tid storage.TID) (version, bool) {
	m.mu.RLock()
	v, ok := m.versions[fid][tid]
	m.mu.RUnlock()
	return v, ok
}

// dropVersion removes a tuple's version entry (freezing or forgetting it).
func (m *mvccState) dropVersion(fid storage.FileID, tid storage.TID) {
	m.mu.Lock()
	m.dropVersionLocked(fid, tid)
	m.mu.Unlock()
}

func (m *mvccState) dropVersionLocked(fid storage.FileID, tid storage.TID) {
	if f := m.versions[fid]; f != nil {
		delete(f, tid)
		if len(f) == 0 {
			delete(m.versions, fid)
		}
	}
}

// clearXmax reverts a delete stamp; the entry is dropped entirely when it
// reverts to the frozen state.
func (m *mvccState) clearXmax(fid storage.FileID, tid storage.TID) {
	m.mu.Lock()
	if f := m.versions[fid]; f != nil {
		v := f[tid]
		v.xmax = 0
		if v.xmin == 0 {
			m.dropVersionLocked(fid, tid)
		} else {
			f[tid] = v
		}
	}
	m.mu.Unlock()
}

// seesLocked reports whether the snapshot observes the given transaction's
// effects. Caller holds m.mu (read or write).
func (m *mvccState) seesLocked(s snapshot, xid uint64) bool {
	if xid == 0 || xid == s.xid {
		return true
	}
	seq, ok := m.committed[xid]
	return ok && seq <= s.seq
}

// visibility returns the tuple-visibility filter for a snapshot, or nil
// when the version map is empty (every tuple frozen — the zero-overhead
// fast path all read-only workloads take).
func (m *mvccState) visibility(s snapshot) executor.Visibility {
	m.mu.RLock()
	empty := len(m.versions) == 0
	m.mu.RUnlock()
	if empty {
		return nil
	}
	return func(fid storage.FileID, tid storage.TID) bool {
		m.mu.RLock()
		defer m.mu.RUnlock()
		v, ok := m.versions[fid][tid]
		if !ok {
			return true
		}
		if !m.seesLocked(s, v.xmin) {
			return false
		}
		return v.xmax == 0 || !m.seesLocked(s, v.xmax)
	}
}

// Txn is one open transaction on a Session.
type Txn struct {
	xid      uint64
	snap     snapshot
	undo     []txnOp
	implicit bool
	began    bool // RecBegin written to the log
}

// InTxn reports whether the session has an open explicit transaction.
func (s *Session) InTxn() bool { return s.txn != nil && !s.txn.implicit }

// Begin opens an explicit snapshot-isolation transaction.
func (s *Session) Begin() error {
	if s.txn != nil {
		return fmt.Errorf("engine: transaction already open")
	}
	s.txn = s.newTxn(false)
	return nil
}

func (s *Session) newTxn(implicit bool) *Txn {
	m := s.DB.mvcc
	xid := m.allocXID()
	t := &Txn{xid: xid, snap: m.takeSnapshot(xid), implicit: implicit}
	m.register(t.snap)
	mTxnBegin.Inc()
	if implicit {
		mTxnImplicit.Inc()
	}
	return t
}

// Commit commits the open transaction: its log records are flushed to
// durable storage before success is reported, its effects become visible
// to later snapshots, and physical cleanup of its deletes runs as soon as
// no older snapshot can see them. A commit whose log flush fails does not
// ack: the transaction is rolled back and the flush error returned.
func (s *Session) Commit() error {
	if s.txn == nil {
		return fmt.Errorf("engine: no transaction open")
	}
	return s.commitTxn()
}

func (s *Session) commitTxn() error {
	t := s.txn
	m := s.DB.mvcc
	if t.began {
		lsn, err := s.logAppend(&wal.Record{Type: wal.RecCommit, XID: t.xid})
		if err == nil {
			err = s.logFlush(lsn)
		}
		if err != nil {
			// The commit record is not durable; the only honest outcome
			// is abort. Undo in memory and report the failure.
			s.rollbackTxn()
			return fmt.Errorf("engine: commit failed, transaction rolled back: %w", err)
		}
	}
	m.mu.Lock()
	seq := m.nextSeq
	m.nextSeq++
	m.committed[t.xid] = seq
	m.mu.Unlock()
	m.unregister(t.snap)
	if len(t.undo) > 0 {
		m.mu.Lock()
		m.pending = append(m.pending, pendingCommit{seq: seq, ops: t.undo})
		m.mu.Unlock()
	}
	s.txn = nil
	mTxnCommit.Inc()
	return s.vacuum()
}

// Rollback undoes the open transaction.
func (s *Session) Rollback() error {
	if s.txn == nil {
		return fmt.Errorf("engine: no transaction open")
	}
	return s.rollbackTxn()
}

func (s *Session) rollbackTxn() error {
	t := s.txn
	var firstErr error
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := s.undoOp(t.undo[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if t.began {
		// Best effort: the abort record lets recovery skip reconstructing
		// this loser, but a lost abort record only means recovery undoes
		// the same operations itself.
		if _, err := s.logAppend(&wal.Record{Type: wal.RecAbort, XID: t.xid}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.DB.mvcc.unregister(t.snap)
	s.txn = nil
	mTxnAbort.Inc()
	if err := s.vacuum(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// undoOp reverts one operation exactly as recovery's undo phase does:
// an insert is physically removed (heap slot, index entries, version
// entry); a delete has its xmax stamp cleared.
func (s *Session) undoOp(op txnOp) error {
	mTxnUndoOps.Inc()
	fid := op.table.Heap.FileID()
	if op.insert {
		s.VM.AccountCPU(executor.OpsPerTuple)
		if err := op.table.Heap.Delete(s.Pool, op.tid); err != nil {
			return err
		}
		for _, ix := range op.table.Indexes {
			v := op.tuple[ix.Col]
			if v.IsNull() {
				continue
			}
			s.VM.AccountCPU(executor.OpsPerIndexTuple)
			if _, err := ix.Tree.Delete(s.Pool, v.I, op.tid); err != nil {
				return err
			}
		}
		s.DB.mvcc.dropVersion(fid, op.tid)
		return nil
	}
	s.VM.AccountCPU(executor.OpsPerTuple)
	s.DB.mvcc.clearXmax(fid, op.tid)
	return nil
}

// vacuum applies the physical side of committed transactions whose
// effects no pinned snapshot can still dispute: committed inserts are
// frozen (version entry dropped) and committed deletes are dead-marked
// with their index entries removed. Runs after every commit, rollback,
// and snapshot release; processing order is commit order.
func (s *Session) vacuum() error {
	m := s.DB.mvcc
	m.mu.Lock()
	minSeq, pinned := m.minSnapshotLocked()
	var ready []pendingCommit
	kept := m.pending[:0]
	for _, p := range m.pending {
		if !pinned || p.seq <= minSeq {
			ready = append(ready, p)
		} else {
			kept = append(kept, p)
		}
	}
	m.pending = kept
	m.mu.Unlock()

	for _, p := range ready {
		// Deletes first: an insert-then-delete in one transaction has a
		// single version entry that the delete path owns.
		for _, op := range p.ops {
			if op.insert {
				continue
			}
			if err := s.cleanupDelete(op); err != nil {
				return err
			}
		}
		for _, op := range p.ops {
			if op.insert {
				s.DB.mvcc.dropVersion(op.table.Heap.FileID(), op.tid)
			}
		}
	}

	// With the version map drained and nothing pending, no tuple
	// references any xid: the commit log can be forgotten.
	m.mu.Lock()
	if len(m.versions) == 0 && len(m.pending) == 0 && len(m.committed) > 0 {
		m.committed = make(map[uint64]uint64)
	}
	m.mu.Unlock()
	return nil
}

// cleanupDelete physically removes a committed-deleted tuple: dead-marks
// the slot, drops index entries, and forgets the version entry.
func (s *Session) cleanupDelete(op txnOp) error {
	fid := op.table.Heap.FileID()
	if _, ok := s.DB.mvcc.getVersion(fid, op.tid); !ok {
		// Already cleaned (e.g. listed by two pending commits).
		return nil
	}
	mTxnVacuumed.Inc()
	s.VM.AccountCPU(executor.OpsPerTuple)
	if err := op.table.Heap.Delete(s.Pool, op.tid); err != nil {
		return err
	}
	for _, ix := range op.table.Indexes {
		v := op.tuple[ix.Col]
		if v.IsNull() {
			continue
		}
		s.VM.AccountCPU(executor.OpsPerIndexTuple)
		ok, err := ix.Tree.Delete(s.Pool, v.I, op.tid)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("engine: index %q missing entry for %v (corrupt index)", ix.Name, op.tid)
		}
	}
	s.DB.mvcc.dropVersion(fid, op.tid)
	return nil
}

// readVisibility returns the visibility filter for a plain read on this
// session: the open transaction's snapshot when one is open, otherwise a
// fresh latest-committed snapshot. Nil when every tuple is frozen.
func (s *Session) readVisibility() executor.Visibility {
	m := s.DB.mvcc
	if s.txn != nil {
		return m.visibility(s.txn.snap)
	}
	return m.visibility(m.takeSnapshot(0))
}

// runDML executes one DML statement with statement-level atomicity: the
// statement runs inside the open transaction (or an implicit one opened
// for it), and on failure exactly the statement's own work is undone —
// compensation-logged when the transaction continues — so a statement is
// all-or-nothing even when it dies halfway through its victims.
func (s *Session) runDML(fn func() (int64, error)) (int64, error) {
	implicit := s.txn == nil
	if implicit {
		s.txn = s.newTxn(true)
	}
	mark := len(s.txn.undo)
	n, err := fn()
	if err != nil {
		if implicit {
			if rbErr := s.rollbackTxn(); rbErr != nil {
				return 0, fmt.Errorf("%w (rollback also failed: %v)", err, rbErr)
			}
			return 0, err
		}
		if rbErr := s.rollbackStatement(mark); rbErr != nil {
			return 0, fmt.Errorf("%w (statement rollback also failed: %v)", err, rbErr)
		}
		return 0, err
	}
	if implicit {
		if err := s.commitTxn(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// rollbackStatement reverts the transaction's work past the given undo
// mark, writing a compensation record per reverted operation so recovery
// replays the rollback even though the transaction commits later.
func (s *Session) rollbackStatement(mark int) error {
	t := s.txn
	mTxnStmtAbort.Inc()
	for i := len(t.undo) - 1; i >= mark; i-- {
		op := t.undo[i]
		if err := s.undoOp(op); err != nil {
			return err
		}
		typ := wal.RecUndoDelete
		if op.insert {
			typ = wal.RecUndoInsert
		}
		if _, err := s.logAppend(&wal.Record{
			Type: typ, XID: t.xid, Table: op.table.Name, TID: op.tid,
			Tuple: storage.EncodeTuple(op.tuple),
		}); err != nil {
			return err
		}
	}
	t.undo = t.undo[:mark]
	return nil
}

// txnInsert inserts a tuple under the current transaction: heap append,
// index maintenance, version stamp, undo entry, and redo log record.
func (s *Session) txnInsert(t *catalog.Table, tup storage.Tuple) (storage.TID, error) {
	x := s.txn
	s.VM.AccountCPU(executor.OpsPerTuple)
	tid, err := t.Heap.Insert(s.Pool, tup)
	if err != nil {
		return storage.TID{}, err
	}
	for _, ix := range t.Indexes {
		v := tup[ix.Col]
		if v.IsNull() {
			continue
		}
		s.VM.AccountCPU(executor.OpsPerIndexTuple)
		if err := ix.Tree.Insert(s.Pool, v.I, tid); err != nil {
			return storage.TID{}, err
		}
	}
	s.DB.mvcc.setVersion(t.Heap.FileID(), tid, version{xmin: x.xid})
	x.undo = append(x.undo, txnOp{insert: true, table: t, tid: tid, tuple: tup.Clone()})
	if err := s.logOp(&wal.Record{
		Type: wal.RecInsert, XID: x.xid, Table: t.Name, TID: tid,
		Tuple: storage.EncodeTuple(tup),
	}); err != nil {
		return storage.TID{}, err
	}
	return tid, nil
}

// txnDelete deletes a tuple under the current transaction: the tuple is
// only stamped xmax (it stays physically present for older snapshots);
// dead-marking happens at vacuum after commit.
func (s *Session) txnDelete(t *catalog.Table, tid storage.TID, tup storage.Tuple) error {
	x := s.txn
	fid := t.Heap.FileID()
	s.VM.AccountCPU(executor.OpsPerTuple)
	v, ok := s.DB.mvcc.getVersion(fid, tid)
	if !ok {
		v = version{}
	}
	if v.xmax != 0 {
		return fmt.Errorf("engine: tuple %v already deleted by transaction %d", tid, v.xmax)
	}
	v.xmax = x.xid
	s.DB.mvcc.setVersion(fid, tid, v)
	x.undo = append(x.undo, txnOp{table: t, tid: tid, tuple: tup.Clone()})
	return s.logOp(&wal.Record{
		Type: wal.RecDelete, XID: x.xid, Table: t.Name, TID: tid,
		Tuple: storage.EncodeTuple(tup),
	})
}

// logOp appends a data record for the current transaction, writing the
// lazy RecBegin first.
func (s *Session) logOp(r *wal.Record) error {
	if s.DB.dur == nil {
		return nil
	}
	x := s.txn
	if !x.began {
		if _, err := s.logAppend(&wal.Record{Type: wal.RecBegin, XID: x.xid}); err != nil {
			return err
		}
		x.began = true
	}
	_, err := s.logAppend(r)
	return err
}
