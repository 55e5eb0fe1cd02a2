package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dbvirt/internal/catalog"
	"dbvirt/internal/obs"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
	"dbvirt/internal/vm"
	"dbvirt/internal/wal"
)

// Durable engine state lives in one directory:
//
//	<dir>/snapshot — a checkpoint: "DBVSNAP1", the epoch of the log that
//	                 extends it, and a database appliance image;
//	<dir>/wal.log  — the write-ahead log (internal/wal format).
//
// The pairing is by epoch. A checkpoint flushes the log, flushes all
// dirty pages, publishes the snapshot atomically (tmp file, fsync,
// rename, directory fsync) stamped with epoch N+1, and only then resets
// the log to epoch N+1. A crash between the rename and the reset leaves
// a snapshot at N+1 next to a log still at N; recovery recognizes the
// log as stale (all its effects are inside the snapshot) and discards
// it. Any other epoch mismatch is real corruption and refuses to open.
//
// Recovery is ARIES-lite over a logical log: analyze (classify
// transactions into winners and losers), redo (replay every record in
// log order — including losers' work, so the physical page layout is a
// deterministic function of the snapshot and log alone), then undo
// (revert losers exactly as a runtime rollback would).

// Recovery and durability metrics.
var (
	mRecoveryRuns      = obs.Global.Counter("recovery.runs")
	mRecoveryRedo      = obs.Global.Counter("recovery.redo.records")
	mRecoveryUndo      = obs.Global.Counter("recovery.undo.records")
	mRecoveryTruncated = obs.Global.Counter("recovery.truncated.bytes")
	mRecoveryStale     = obs.Global.Counter("recovery.stale_logs")
	mCheckpoints       = obs.Global.Counter("engine.checkpoints")
)

const (
	snapshotMagic = "DBVSNAP1"
	logFileName   = "wal.log"
	snapFileName  = "snapshot"
)

// durability is a Database's attachment to a write-ahead log (and, when
// dir is set, a snapshot directory).
type durability struct {
	dir string // "" for cost-only (in-memory device) logging
	log *wal.Log

	mu           sync.Mutex
	pendingBytes int64 // appended but not yet flushed, for write-cost charging
}

// LogStats returns the records and bytes appended to the attached log
// since it was opened or last reset; zeros without a log. The byte count
// against the logical tuple bytes written is the measured write
// amplification the calibration write probe reports.
func (db *Database) LogStats() (records, bytes int64) {
	if db.dur == nil {
		return 0, 0
	}
	return db.dur.log.Records(), db.dur.log.AppendedBytes()
}

// EnableLogging attaches a write-ahead log over the given device to a
// database that does not have one. Experiments use this with a MemDevice
// so commit-path costs (log writes, fsync latency) are charged to the VM
// without touching the filesystem.
func (db *Database) EnableLogging(dev wal.Device, epoch uint64) error {
	if db.dur != nil {
		return fmt.Errorf("engine: logging already enabled")
	}
	log, err := wal.OpenLog(dev, epoch)
	if err != nil {
		return err
	}
	db.dur = &durability{log: log}
	return nil
}

// logAppend appends one record to the database's log, tracking the bytes
// for flush-time write-cost charging. No-op (LSN 0) without a log.
func (s *Session) logAppend(r *wal.Record) (wal.LSN, error) {
	d := s.DB.dur
	if d == nil {
		return 0, nil
	}
	before := d.log.AppendedBytes()
	lsn, err := d.log.Append(r)
	if err != nil {
		return 0, err
	}
	n := int64(lsn) - before
	d.mu.Lock()
	d.pendingBytes += n
	d.mu.Unlock()
	return lsn, nil
}

// logFlush makes the log durable through lsn and charges the session's
// VM for the physical write: the unflushed bytes rounded up to pages,
// plus one log-flush latency. This is the charge that makes commit-heavy
// tenants sensitive to their I/O share.
func (s *Session) logFlush(lsn wal.LSN) error {
	d := s.DB.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	bytes := d.pendingBytes
	d.pendingBytes = 0
	d.mu.Unlock()
	if err := d.log.Flush(lsn); err != nil {
		return err
	}
	pages := int((bytes + storage.PageSize - 1) / storage.PageSize)
	if pages == 0 && bytes > 0 {
		pages = 1
	}
	s.VM.AccountWrite(pages)
	s.VM.AccountLogFlush(1)
	return nil
}

// logDDL appends and immediately flushes a DDL record (XID 0: DDL is
// non-transactional and durable at statement end).
func (s *Session) logDDL(r *wal.Record) error {
	if s.DB.dur == nil {
		return nil
	}
	lsn, err := s.logAppend(r)
	if err != nil {
		return err
	}
	return s.logFlush(lsn)
}

// CheckpointDurable makes all committed state durable and truncates the
// log: force-vacuum, flush the log (WAL before data), flush all dirty
// pages, publish the snapshot atomically, then reset the log to the next
// epoch. It refuses to run inside an open transaction or while any
// snapshot is pinned, so the image holds exactly committed data and the
// version map is empty. Without a log attached it degrades to a plain
// buffer-pool flush.
func (s *Session) CheckpointDurable() error {
	d := s.DB.dur
	if d == nil {
		return s.Checkpoint()
	}
	if s.txn != nil {
		return fmt.Errorf("engine: cannot checkpoint inside a transaction")
	}
	m := s.DB.mvcc
	m.mu.RLock()
	pinned := len(m.snapshots)
	m.mu.RUnlock()
	if pinned > 0 {
		return fmt.Errorf("engine: cannot checkpoint with %d open transactions", pinned)
	}
	if err := s.vacuum(); err != nil {
		return err
	}
	if err := s.logFlush(wal.LSN(d.log.AppendedBytes())); err != nil {
		return err
	}
	if err := s.Pool.FlushAll(); err != nil {
		return err
	}
	epoch := d.log.Epoch() + 1
	if d.dir != "" {
		if err := writeSnapshot(d.dir, epoch, s.DB); err != nil {
			return err
		}
	}
	if err := d.log.Reset(epoch); err != nil {
		return err
	}
	mCheckpoints.Inc()
	return nil
}

// writeSnapshot publishes <dir>/snapshot atomically: tmp file, fsync,
// rename, directory fsync.
func writeSnapshot(dir string, epoch uint64, db *Database) error {
	tmp := filepath.Join(dir, snapFileName+".tmp")
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		f.Close()
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, epoch); err != nil {
		f.Close()
		return err
	}
	if err := db.SaveImage(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("engine: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("engine: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapFileName)); err != nil {
		return err
	}
	return wal.SyncDir(dir)
}

// readSnapshot loads <dir>/snapshot, returning the database and the
// epoch of the log that extends it; ok=false when no snapshot exists.
func readSnapshot(dir string) (*Database, uint64, bool, error) {
	f, err := os.Open(filepath.Join(dir, snapFileName))
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, false, fmt.Errorf("engine: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, 0, false, fmt.Errorf("engine: not a snapshot (bad magic %q)", magic)
	}
	var epoch uint64
	if err := binary.Read(br, binary.LittleEndian, &epoch); err != nil {
		return nil, 0, false, err
	}
	db, err := LoadImage(br)
	if err != nil {
		return nil, 0, false, err
	}
	return db, epoch, true, nil
}

// RecoveryStats summarizes one crash-recovery run.
type RecoveryStats struct {
	SnapshotLoaded bool   // a checkpoint snapshot was the starting point
	LogEpoch       uint64 // epoch of the log after recovery
	TruncatedBytes int64  // torn-tail bytes discarded from the log
	StaleLog       bool   // the log predated the snapshot and was discarded
	RedoRecords    int64  // records replayed
	UndoRecords    int64  // loser operations reverted
	Winners        int    // committed transactions replayed
	Losers         int    // in-flight or aborted transactions undone
}

// String renders the stats one fact per line (the dbvshell -recovery-stats
// format the CI soak job parses).
func (r *RecoveryStats) String() string {
	return fmt.Sprintf(
		"recovery.snapshot_loaded %d\nrecovery.log_epoch %d\nrecovery.truncated.bytes %d\nrecovery.stale_log %d\nrecovery.redo.records %d\nrecovery.undo.records %d\nrecovery.winners %d\nrecovery.losers %d\n",
		b2i(r.SnapshotLoaded), r.LogEpoch, r.TruncatedBytes, b2i(r.StaleLog),
		r.RedoRecords, r.UndoRecords, r.Winners, r.Losers)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Open opens (creating if necessary) a durable database in dir, running
// crash recovery: load the latest snapshot, truncate any torn log tail,
// replay the log (redo), revert loser transactions (undo), and
// checkpoint the recovered state so the next open starts clean.
func Open(dir string) (*Database, *RecoveryStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	stats := &RecoveryStats{}
	db, snapEpoch, haveSnap, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	if !haveSnap {
		db = NewDatabase()
		snapEpoch = 1
	}
	stats.SnapshotLoaded = haveSnap

	dev, err := wal.OpenFileDevice(filepath.Join(dir, logFileName))
	if err != nil {
		return nil, nil, err
	}
	var recs []*wal.Record
	data, err := dev.Load()
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	if len(data) > 0 {
		logEpoch, err := wal.DecodeHeader(data)
		if err != nil {
			dev.Close()
			return nil, nil, err
		}
		switch {
		case logEpoch == snapEpoch:
			var valid int
			recs, valid = wal.Scan(data[wal.HeaderSize:])
			if torn := int64(len(data)) - int64(wal.HeaderSize+valid); torn > 0 {
				stats.TruncatedBytes = torn
				mRecoveryTruncated.Add(torn)
				if err := dev.Reset(data[:wal.HeaderSize+valid]); err != nil {
					dev.Close()
					return nil, nil, err
				}
			}
		case haveSnap && logEpoch == snapEpoch-1:
			// Crash between snapshot publication and log reset: every
			// effect in this log is already inside the snapshot.
			stats.StaleLog = true
			mRecoveryStale.Inc()
			if err := dev.Reset(wal.EncodeHeader(snapEpoch)); err != nil {
				dev.Close()
				return nil, nil, err
			}
		default:
			dev.Close()
			return nil, nil, fmt.Errorf("engine: log epoch %d does not extend snapshot epoch %d", logEpoch, snapEpoch)
		}
	}
	log, err := wal.OpenLog(dev, snapEpoch)
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	db.dur = &durability{dir: dir, log: log}
	stats.LogEpoch = log.Epoch()

	if len(recs) > 0 {
		sess, err := recoverySession(db)
		if err != nil {
			return nil, nil, err
		}
		if err := replay(sess, recs, stats); err != nil {
			return nil, nil, fmt.Errorf("engine: recovery failed: %w", err)
		}
		// Checkpoint the recovered state: the next open starts from the
		// snapshot instead of replaying an ever-growing log.
		if err := sess.CheckpointDurable(); err != nil {
			return nil, nil, fmt.Errorf("engine: post-recovery checkpoint: %w", err)
		}
		stats.LogEpoch = log.Epoch()
	}
	mRecoveryRuns.Inc()
	return db, stats, nil
}

// recoverySession builds a dedicated full-machine session for replay; the
// recovering process owns the whole machine.
func recoverySession(db *Database) (*Session, error) {
	machine, err := vm.NewMachine(vm.DefaultMachineConfig())
	if err != nil {
		return nil, err
	}
	rv, err := machine.NewVM("recovery", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		return nil, err
	}
	return NewSession(db, rv, DefaultConfig())
}

// replay is the redo+undo engine: every record is applied in log order
// (losers included), then committed transactions are finalized in commit
// order and losers reverted.
func replay(s *Session, recs []*wal.Record, stats *RecoveryStats) error {
	type redoTxn struct {
		ops       []txnOp
		committed bool
	}
	txns := make(map[uint64]*redoTxn)
	var commitOrder []uint64
	get := func(xid uint64) *redoTxn {
		t := txns[xid]
		if t == nil {
			t = &redoTxn{}
			txns[xid] = t
		}
		return t
	}
	m := s.DB.mvcc

	for i, r := range recs {
		stats.RedoRecords++
		mRecoveryRedo.Inc()
		switch r.Type {
		case wal.RecBegin:
			get(r.XID)

		case wal.RecCommit:
			t := get(r.XID)
			t.committed = true
			commitOrder = append(commitOrder, r.XID)

		case wal.RecAbort:
			get(r.XID) // stays a loser; runtime already undid it, redo re-did it

		case wal.RecInsert:
			tbl, tup, err := decodeDataRecord(s.DB.Catalog, r)
			if err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			if err := redoInsert(s, tbl, r.TID, tup, r.XID); err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			t := get(r.XID)
			t.ops = append(t.ops, txnOp{insert: true, table: tbl, tid: r.TID, tuple: tup})

		case wal.RecDelete:
			tbl, tup, err := decodeDataRecord(s.DB.Catalog, r)
			if err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			fid := tbl.Heap.FileID()
			v, _ := m.getVersion(fid, r.TID)
			v.xmax = r.XID
			m.setVersion(fid, r.TID, v)
			t := get(r.XID)
			t.ops = append(t.ops, txnOp{table: tbl, tid: r.TID, tuple: tup})

		case wal.RecUndoInsert, wal.RecUndoDelete:
			// Compensation: replay the statement rollback and retire the
			// op it reverted from the transaction's pending-undo list.
			tbl, tup, err := decodeDataRecord(s.DB.Catalog, r)
			if err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			op := txnOp{insert: r.Type == wal.RecUndoInsert, table: tbl, tid: r.TID, tuple: tup}
			if err := s.undoOp(op); err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			t := get(r.XID)
			last := len(t.ops) - 1
			if last < 0 || t.ops[last].tid != r.TID || t.ops[last].insert != op.insert {
				return fmt.Errorf("record %d: compensation %s does not match transaction %d's last operation", i, r.Type, r.XID)
			}
			t.ops = t.ops[:last]

		case wal.RecCreateTable:
			cols := make([]catalog.Column, len(r.Cols))
			for ci, c := range r.Cols {
				cols[ci] = catalog.Column{Name: c.Name, Kind: types.Kind(c.Kind)}
			}
			if _, err := s.DB.Catalog.CreateTable(s.DB.Disk, r.Table, catalog.Schema{Cols: cols}); err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}

		case wal.RecCreateIndex:
			if _, err := s.DB.Catalog.CreateIndex(s.DB.Disk, s.Pool, r.Index, r.Table, r.Column); err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}

		case wal.RecCheckpoint:
			// Informational only: checkpoints reset the log, so one never
			// appears mid-log in the current format.

		default:
			return fmt.Errorf("record %d: unknown record type %d", i, r.Type)
		}
	}

	// Winners: finalize in commit order (mark committed, then run the
	// same physical cleanup vacuum would — no snapshots are pinned).
	for _, xid := range commitOrder {
		m.mu.Lock()
		seq := m.nextSeq
		m.nextSeq++
		m.committed[xid] = seq
		m.mu.Unlock()
		t := txns[xid]
		for _, op := range t.ops {
			if op.insert {
				continue
			}
			if err := s.cleanupDelete(op); err != nil {
				return err
			}
		}
		for _, op := range t.ops {
			if !op.insert {
				continue
			}
			// Freeze the committed insert — unless a later transaction's
			// redone delete already claimed the tuple (xmax set): dropping
			// the entry here would erase that claim, and the deleter's own
			// finalization (a winner later in commit order) or undo (a
			// loser) still needs it. Runtime vacuum never sees this case
			// because it freezes each commit before the next one starts.
			fid := op.table.Heap.FileID()
			if v, ok := m.getVersion(fid, op.tid); ok && v.xmax == 0 {
				m.dropVersion(fid, op.tid)
			}
		}
		stats.Winners++
	}

	// Losers: revert remaining operations in reverse. Losers never share
	// a tuple (a transaction only deletes tuples committed before its
	// snapshot), so per-transaction reverse order is globally safe — but
	// the order across losers must still be fixed (newest first), because
	// index-tree deletions are order-sensitive in page layout and recovery
	// promises a bit-identical image on every run.
	var losers []uint64
	for xid, t := range txns {
		if !t.committed {
			losers = append(losers, xid)
		}
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i] > losers[j] })
	for _, xid := range losers {
		t := txns[xid]
		stats.Losers++
		for i := len(t.ops) - 1; i >= 0; i-- {
			stats.UndoRecords++
			mRecoveryUndo.Inc()
			if err := s.undoOp(t.ops[i]); err != nil {
				return fmt.Errorf("undoing transaction %d: %w", xid, err)
			}
		}
	}

	// XIDs restart after the log's: recovered version state is empty (all
	// frozen), but keep the counter monotonic for readability of logs.
	m.mu.Lock()
	for xid := range txns {
		if xid >= m.nextXID {
			m.nextXID = xid + 1
		}
	}
	m.mu.Unlock()

	if err := s.Pool.FlushAll(); err != nil {
		return err
	}
	s.DB.Catalog.Invalidate()
	return nil
}

// decodeDataRecord resolves a data record's table and tuple image.
func decodeDataRecord(c *catalog.Catalog, r *wal.Record) (*catalog.Table, storage.Tuple, error) {
	t, err := c.Table(r.Table)
	if err != nil {
		return nil, nil, err
	}
	tup, err := storage.DecodeTuple(r.Tuple)
	if err != nil {
		return nil, nil, fmt.Errorf("decoding %s tuple image: %w", r.Type, err)
	}
	return t, tup, nil
}

// redoInsert replays one logged insert, asserting the tuple lands at the
// logged TID — the physical-determinism invariant redo relies on.
func redoInsert(s *Session, t *catalog.Table, tid storage.TID, tup storage.Tuple, xid uint64) error {
	got, err := t.Heap.Insert(s.Pool, tup)
	if err != nil {
		return err
	}
	if got != tid {
		return fmt.Errorf("redo of %s insert landed at %v, log says %v (base image diverged)", t.Name, got, tid)
	}
	for _, ix := range t.Indexes {
		v := tup[ix.Col]
		if v.IsNull() {
			continue
		}
		if err := ix.Tree.Insert(s.Pool, v.I, tid); err != nil {
			return err
		}
	}
	s.DB.mvcc.setVersion(t.Heap.FileID(), tid, version{xmin: xid})
	return nil
}

// Close flushes and closes the database's durable resources. Databases
// without a log need no close.
func (db *Database) Close() error {
	if db.dur == nil {
		return nil
	}
	err := db.dur.log.Close()
	db.dur = nil
	return err
}
