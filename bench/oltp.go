package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"dbvirt/internal/buffer"
	"dbvirt/internal/engine"
	"dbvirt/internal/experiments"
	"dbvirt/internal/sql"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
	"dbvirt/internal/vm"
	"dbvirt/internal/wal"
	"dbvirt/internal/workload"
)

// Frozen sizes of the oltp workload.
const (
	oltpBaseRows     = 20000 // rows of account loaded before the first op
	oltpDataSeed     = 7
	oltpCyclesPerLap = 50  // 1000 ops; a CHECKPOINT follows every lap
	oltpWarmupCycles = 25  // 500 warm-up ops during set-up
	oltpRecoveryOps  = 500 // ops replayed on a durable copy for engine.recovery_ms
)

// Kinds of the 20-op cycle, indices into oltpKinds.
const (
	kSelectPoint = iota
	kSelectRange
	kInsert
	kUpdate
	kDelete
)

// oltpCycle is the fixed mix: 10 point reads, 1 range read, 4 inserts,
// 4 updates, 1 delete; the generator shuffles its order every cycle.
var oltpCycle = func() []uint8 {
	var c []uint8
	for _, k := range []struct {
		kind uint8
		n    int
	}{{kSelectPoint, 10}, {kSelectRange, 1}, {kInsert, 4}, {kUpdate, 4}, {kDelete, 1}} {
		for i := 0; i < k.n; i++ {
			c = append(c, k.kind)
		}
	}
	return c
}()

// oltpGen emits the op list and keeps the model of the table the ops must
// produce: the generator, not the program, knows what is right.
type oltpGen struct {
	rng   *rand.Rand
	model map[int64]float64 // a_id -> a_bal
	keys  []int64           // live keys, for O(1) seeded picks
	pos   map[int64]int
	next  int64 // next key to insert
}

func newOLTPGen(seed int64, initial map[int64]float64) *oltpGen {
	g := &oltpGen{rng: rand.New(rand.NewSource(seed)), model: map[int64]float64{}, pos: map[int64]int{}}
	for k := int64(1); k <= int64(len(initial)); k++ { // ascending, so picks do not depend on map order
		g.model[k] = initial[k]
		g.pos[k] = len(g.keys)
		g.keys = append(g.keys, k)
	}
	g.next = int64(len(initial)) + 1
	return g
}

func (g *oltpGen) pick() int64 { return g.keys[g.rng.Intn(len(g.keys))] }

// cycles emits n shuffled 20-op cycles and advances the model.
func (g *oltpGen) cycles(n int) []op {
	ops := make([]op, 0, n*len(oltpCycle))
	order := append([]uint8(nil), oltpCycle...)
	for c := 0; c < n; c++ {
		g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, kind := range order {
			o := op{kind: kind, want: 1}
			switch kind {
			case kSelectPoint:
				o.sql = fmt.Sprintf("SELECT a_bal FROM account WHERE a_id = %d", g.pick())
			case kSelectRange:
				// Every key above oltpBaseRows/2 that was ever live outnumbers
				// the deletes by far, so 10 rows always qualify.
				o.sql = fmt.Sprintf("SELECT a_id, a_bal FROM account WHERE a_id >= %d LIMIT 10", 1+g.rng.Intn(oltpBaseRows/2))
				o.want = 10
			case kInsert:
				k, bal := g.next, float64(g.rng.Intn(100000))/100
				g.next++
				o.sql = fmt.Sprintf("INSERT INTO account VALUES (%d, %.2f)", k, bal)
				g.model[k] = bal
				g.pos[k] = len(g.keys)
				g.keys = append(g.keys, k)
			case kUpdate:
				k := g.pick()
				o.sql = fmt.Sprintf("UPDATE account SET a_bal = a_bal + 1.0 WHERE a_id = %d", k)
				g.model[k] += 1.0
			case kDelete:
				k := g.pick()
				o.sql = fmt.Sprintf("DELETE FROM account WHERE a_id = %d", k)
				i, last := g.pos[k], len(g.keys)-1
				g.keys[i] = g.keys[last]
				g.pos[g.keys[i]] = i
				g.keys = g.keys[:last]
				delete(g.pos, k)
				delete(g.model, k)
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// countingDevice wraps the log device: it counts what reaches the device
// and, on traced ops, records a span around every Append and Sync. The
// inner device is in memory, so a sync costs no disk time and the numbers
// measure the program, not the sandbox's disk.
type countingDevice struct {
	inner        wal.Device
	syncs, bytes int64
	tr           *tracer
	cur          *opTrace // the traced op in flight
}

func (d *countingDevice) timed(f func() error) error {
	if d.cur == nil {
		return f()
	}
	t0 := d.tr.now()
	err := f()
	d.cur.span(spanWAL, t0, d.tr.now())
	return err
}

func (d *countingDevice) Append(buf []byte) error {
	d.bytes += int64(len(buf))
	return d.timed(func() error { return d.inner.Append(buf) })
}

func (d *countingDevice) Sync() error {
	d.syncs++
	return d.timed(d.inner.Sync)
}

func (d *countingDevice) Load() ([]byte, error)      { return d.inner.Load() }
func (d *countingDevice) Reset(initial []byte) error { return d.inner.Reset(initial) }
func (d *countingDevice) Size() int64                { return d.inner.Size() }
func (d *countingDevice) Close() error               { return d.inner.Close() }

type oltpWorkload struct {
	seed    int64
	sz      sizing
	tr      *tracer
	sess    *engine.Session
	dev     *countingDevice
	gen     *oltpGen
	initial map[int64]float64

	commits    int64 // write ops acknowledged since the last checkpoint
	allCommits int64
	rowsLogged int64 // tuples the write ops inserted or rewrote
	dmlSelfNS  int64 // traced write ops: Exec minus re-parse minus log device
	recoveryMS float64
}

func newOLTP(seed int64, sz sizing, tr *tracer) *oltpWorkload {
	return &oltpWorkload{seed: seed, sz: sz, tr: tr}
}

func (w *oltpWorkload) kinds() []string { return oltpKinds }

func (w *oltpWorkload) setup() error {
	env := experiments.QuickEnv()
	db := engine.NewDatabase()
	w.dev = &countingDevice{inner: wal.NewMemDevice(), tr: w.tr}
	if err := db.EnableLogging(w.dev, 1); err != nil {
		return err
	}
	loader, err := newVM(env.Machine, "oltp-loader", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		return err
	}
	ls, err := engine.NewSession(db, loader, env.Engine)
	if err != nil {
		return err
	}
	if err := workload.BuildWriteBase(ls, oltpBaseRows, oltpDataSeed); err != nil {
		return err
	}
	v, err := newVM(env.Machine, "oltp", vm.Shares{CPU: 0.5, Memory: 0.5, IO: 0.5})
	if err != nil {
		return err
	}
	if w.sess, err = engine.NewSession(db, v, env.Engine); err != nil {
		return err
	}
	acct, err := db.Catalog.Table("account")
	if err != nil {
		return err
	}
	pages, frames := w.sess.Pool.NumPages(acct.Heap.FileID()), w.sess.Pool.NumFrames()
	logf("oltp: account has %d pages, the buffer pool %d frames", pages, frames)
	if int(pages)*2 >= frames {
		return fmt.Errorf("account (%d pages) must fit the buffer pool (%d frames) with room to grow", pages, frames)
	}
	if w.initial, err = readAccounts(w.sess); err != nil {
		return err
	}
	if len(w.initial) != oltpBaseRows {
		return fmt.Errorf("loaded %d rows, want %d", len(w.initial), oltpBaseRows)
	}
	w.gen = newOLTPGen(w.seed, w.initial)
	warm := w.gen.cycles(w.sz.scaled(oltpWarmupCycles, 1))
	for i := range warm {
		if _, err := w.do(0, &warm[i], nil); err != nil {
			return fmt.Errorf("warm-up op %d (%s): %w", i, warm[i].sql, err)
		}
	}
	if _, err := w.endLap(-1); err != nil {
		return err
	}
	w.dev.syncs, w.dev.bytes, w.allCommits, w.rowsLogged = 0, 0, 0, 0
	return nil
}

// readAccounts reads the whole table through the engine.
func readAccounts(s *engine.Session) (map[int64]float64, error) {
	rows, _, err := s.QueryRows("SELECT a_id, a_bal FROM account")
	if err != nil {
		return nil, err
	}
	out := make(map[int64]float64, len(rows))
	for _, r := range rows {
		if _, dup := out[r[0].I]; dup {
			return nil, fmt.Errorf("a_id %d appears twice", r[0].I)
		}
		out[r[0].I] = r[1].F
	}
	return out, nil
}

func sameAccounts(got, want map[int64]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("table has %d rows, the generator's model %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return fmt.Errorf("a_id %d: table has (%v, present=%v), the generator's model %v", k, g, ok, v)
		}
	}
	return nil
}

func (w *oltpWorkload) lap(int) [][]op {
	return [][]op{w.gen.cycles(w.sz.scaled(oltpCyclesPerLap, 2))}
}

func (w *oltpWorkload) do(_ int, o *op, ot *opTrace) (time.Duration, error) {
	write := o.kind >= kInsert
	var n int64
	var err error
	start := time.Now()
	switch {
	case ot == nil:
		n, err = w.sess.RunStatement(o.sql)
	case !write:
		var r selectResult
		r, err = runSelectLayers(w.sess, w.tr, o.sql, false, ot)
		n = r.Rows
	default:
		// A write goes through Session.Exec as one span; the log device
		// records its own spans inside it, and the statement is parsed
		// once more afterwards to learn what share of Exec was parsing.
		w.dev.cur = ot
		n, err = w.sess.RunStatement(o.sql)
		w.dev.cur = nil
		ot.end = w.tr.now()
		var walNS int64
		for _, s := range ot.spans {
			walNS += s.end - s.start
		}
		p0 := w.tr.now()
		_, perr := sql.Parse(o.sql)
		p1 := w.tr.now()
		ot.span(spanParse, p0, p1)
		if perr != nil && err == nil {
			err = perr
		}
		w.dmlSelfNS += (ot.end - ot.start) - (p1 - p0) - walNS
	}
	d := time.Since(start)
	if ot != nil && write {
		d = time.Duration(ot.end - ot.start)
	}
	if err != nil {
		return d, err
	}
	if n != o.want {
		return d, fmt.Errorf("%q: %d rows, want %d", o.sql, n, o.want)
	}
	if write {
		w.commits++
		if o.kind != kDelete {
			w.rowsLogged++
		}
	}
	return d, nil
}

// endLap audits the log — every write acknowledged since the last
// checkpoint must have its commit record on the device — and then runs the
// CHECKPOINT the session waits for.
func (w *oltpWorkload) endLap(int) (time.Duration, error) {
	data, err := w.dev.Load()
	if err != nil {
		return 0, err
	}
	recs, _ := wal.Scan(data[wal.HeaderSize:])
	var logged int64
	for _, r := range recs {
		if r.Type == wal.RecCommit {
			logged++
		}
	}
	if logged != w.commits {
		return 0, fmt.Errorf("%d writes were acknowledged since the last checkpoint but the log holds %d commit records", w.commits, logged)
	}
	w.allCommits += w.commits
	w.commits = 0
	start := time.Now()
	_, err = w.sess.Exec("CHECKPOINT")
	return time.Since(start), err
}

func (w *oltpWorkload) finish(traced bool) error {
	got, err := readAccounts(w.sess)
	if err != nil {
		return err
	}
	if err := sameAccounts(got, w.gen.model); err != nil {
		return fmt.Errorf("final table contents: %w", err)
	}
	if !traced {
		return nil
	}
	return w.recoveryCheck()
}

// recoveryCheck replays the first ops on a durable database in a scratch
// directory, closes it without a checkpoint, reopens it — which recovers
// from the log alone — and verifies every acknowledged row.
func (w *oltpWorkload) recoveryCheck() error {
	dir, err := os.MkdirTemp(outDir, "recovery-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func() (*engine.Database, *engine.Session, error) {
		db, _, err := engine.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		v, err := newVM(vm.DefaultMachineConfig(), "recovery-check", vm.Shares{CPU: 1, Memory: 1, IO: 1})
		if err != nil {
			return nil, nil, err
		}
		s, err := engine.NewSession(db, v, engine.DefaultConfig())
		return db, s, err
	}
	db, s, err := open()
	if err != nil {
		return err
	}
	// Load the base rows in one transaction (one log sync), then the ops
	// as autocommit statements, exactly as the timed run sent them.
	stmts := []string{"CREATE TABLE account (a_id INT, a_bal FLOAT)", "BEGIN"}
	var b strings.Builder
	for k := int64(1); k <= int64(len(w.initial)); k++ {
		if b.Len() == 0 {
			b.WriteString("INSERT INTO account VALUES ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %v)", k, w.initial[k])
		if k%500 == 0 || k == int64(len(w.initial)) {
			stmts = append(stmts, b.String())
			b.Reset()
		}
	}
	stmts = append(stmts, "COMMIT", "CREATE INDEX account_pk ON account (a_id)")
	for _, st := range stmts {
		if _, err := s.Exec(st); err != nil {
			db.Close()
			return fmt.Errorf("recovery check: loading: %w", err)
		}
	}
	gen := newOLTPGen(w.seed, w.initial)
	ops := gen.cycles((oltpRecoveryOps + len(oltpCycle) - 1) / len(oltpCycle))
	for i := range ops {
		n, err := s.RunStatement(ops[i].sql)
		if err == nil && n != ops[i].want {
			err = fmt.Errorf("%d rows, want %d", n, ops[i].want)
		}
		if err != nil {
			db.Close()
			return fmt.Errorf("recovery check: %q: %w", ops[i].sql, err)
		}
	}
	if err := db.Close(); err != nil {
		return err
	}
	start := time.Now()
	db, s, err = open()
	w.recoveryMS = float64(time.Since(start)) / 1e6
	if err != nil {
		return fmt.Errorf("recovery check: reopening: %w", err)
	}
	defer db.Close()
	got, err := readAccounts(s)
	if err != nil {
		return err
	}
	if err := sameAccounts(got, gen.model); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	return nil
}

func (w *oltpWorkload) engineState() (buffer.Stats, vm.Usage, float64) {
	return w.sess.Pool.Stats(), w.sess.VM.Snapshot(), w.sess.VM.Machine().Config().Overlap
}

func (w *oltpWorkload) layerMetrics(m metricSet, tr *tracer) {
	if tr.ops > 0 {
		m["engine.dml_self_us_per_op"] = float64(w.dmlSelfNS) / 1e3 / float64(tr.ops)
	}
	m["engine.recovery_ms"] = w.recoveryMS
	commits := float64(w.allCommits)
	bytes := float64(w.dev.bytes)
	m["wal.bytes_per_commit"] = ratio(bytes, commits)
	m["wal.syncs_per_commit"] = ratio(float64(w.dev.syncs), commits)
	tuple := len(storage.EncodeTuple(storage.Tuple{types.NewInt(1), types.NewFloat(1)}))
	m["wal.write_amp"] = ratio(bytes, float64(w.rowsLogged)*float64(tuple))
}

func (w *oltpWorkload) close() {}
