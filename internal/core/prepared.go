package core

import (
	"sync"
	"sync/atomic"

	"dbvirt/internal/engine"
	"dbvirt/internal/memo"
	"dbvirt/internal/obs"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/plan"
	"dbvirt/internal/sql"
)

// prepared.hit|miss count statement lookups: a miss parsed, bound and
// prepared the statement, a hit found it prepared — in the cache's map or
// through the handles a spec keeps; prepared.evict counts statements
// dropped by generation turnover. atom.hit|miss count statement
// pricings served from an atom or by the optimizer, atom.evict atoms
// dropped by generation turnover or a catalog change, atom.size those
// currently held.
var (
	mPreparedHit   = obs.Global.Counter("core.prepared.hit")
	mPreparedMiss  = obs.Global.Counter("core.prepared.miss")
	mPreparedEvict = obs.Global.Counter("core.prepared.evict")
	mAtomHit       = obs.Global.Counter("core.atom.hit")
	mAtomMiss      = obs.Global.Counter("core.atom.miss")
	mAtomEvict     = obs.Global.Counter("core.atom.evict")
	gAtomSize      = obs.Global.Gauge("core.atom.size")
)

// stmtKey identifies one prepared statement: the database it binds
// against plus its normalized text. The catalog version is checked on
// every lookup rather than baked into the key so stale entries are
// replaced instead of accumulating.
type stmtKey struct {
	db  *engine.Database
	sql string
}

// stmtGeneration bounds the statements one cache holds (a memo.Gen): a
// generation holds at most this many, and two generations are kept. The
// callers name statements from a fixed query set; an evicted statement
// costs one prepare, and specs holding its handle keep using it.
const stmtGeneration = 1024

// atomGeneration bounds one statement's cost atoms (a memo.Gen): a
// generation holds at most this many, and two generations are kept. A
// solver lattice (49 points per machine size) and its neighbours stay
// resident; a stream of never-repeated vectors turns over without growing.
const atomGeneration = 512

// stmtEntry is one prepared statement of one catalog version, with the
// cost atoms priced from it: est under the exact Params value it was
// priced with. An atom is a pure function of (statement, catalog version,
// Params), so serving one is indistinguishable from re-pricing, whatever
// produced the vector — a lattice point, an interpolation or a fresh
// calibration — and dropping one only costs the re-pricing. Atoms hang
// off the entry so a catalog change drops them with the statement.
type stmtEntry struct {
	version uint64
	pq      *optimizer.PreparedQuery
	err     error

	mu    sync.Mutex
	atoms memo.Gen[optimizer.Params, float64]
	stale bool // replaced in the cache: keeps no atoms
}

// stmtCache is the per-model prepared-statement cache: each statement is
// parsed, bound, and plan-space-prepared once per catalog version, then
// shared by every allocation the what-if model prices — including
// concurrent solver workers.
type stmtCache struct {
	mu      sync.Mutex
	entries memo.Gen[stmtKey, *stmtEntry]
	// atomBound is atomGeneration; a field so a test can force turnover.
	atomBound int
}

func newStmtCache() *stmtCache {
	return &stmtCache{
		entries:   memo.Gen[stmtKey, *stmtEntry]{Cap: stmtGeneration, Evict: mPreparedEvict},
		atomBound: atomGeneration,
	}
}

// entry returns the cached entry for a statement in sql.Normalize form,
// preparing it on first use or when the database catalog has changed
// since. Failures are cached in the entry too: a statement that is not a
// SELECT, or cannot be parsed or bound, fails every allocation
// identically.
func (c *stmtCache) entry(db *engine.Database, norm string) *stmtEntry {
	key := stmtKey{db: db, sql: norm}
	ver := db.Catalog.Version()
	c.mu.Lock()
	e, _ := c.entries.Get(key)
	c.mu.Unlock()
	if e != nil && e.version == ver {
		mPreparedHit.Inc()
		return e
	}
	mPreparedMiss.Inc()
	entry := &stmtEntry{version: ver, atoms: memo.Gen[optimizer.Params, float64]{Cap: c.atomBound, Evict: mAtomEvict}}
	if sel, err := sql.ParseSelect(norm); err != nil {
		entry.err = err
	} else if q, err := plan.Bind(sel, db.Catalog); err != nil {
		entry.err = err
	} else {
		entry.pq = optimizer.Prepare(q, nil)
	}
	c.mu.Lock()
	cur, _ := c.entries.Get(key)
	if cur != nil && cur.version == ver {
		// Lost a prepare race; keep the winner so all callers share one
		// plan-space memo.
		entry = cur
	} else {
		c.entries.Put(key, entry)
	}
	c.mu.Unlock()
	if cur != nil && cur != entry {
		cur.retire()
	}
	return entry
}

// stmtHandles is a spec's statements resolved against one cache at one
// catalog version: entries[i] prices Statements[i], and a run of equal
// statements shares one entry.
type stmtHandles struct {
	cache    *stmtCache
	version  uint64
	entries  []*stmtEntry
	distinct int64 // cache lookups the resolution took
}

// handles resolves the spec's statements, once per catalog version: the
// result is kept on the spec (on the spec it views, for a view), so every
// later call — under any allocation, weight or SLO — skips normalization
// and the cache's map. A spec priced by two models alternately resolves
// each time; it stays correct.
func (c *stmtCache) handles(w *WorkloadSpec) []*stmtEntry {
	base := w.Base()
	ver := w.DB.Catalog.Version()
	if h := base.handles.Load(); h != nil && h.cache == c && h.version == ver {
		mPreparedHit.Add(h.distinct)
		return h.entries
	}
	norms := base.NormalizedStatements()
	h := &stmtHandles{cache: c, version: ver, entries: make([]*stmtEntry, len(norms))}
	for i, norm := range norms {
		if i > 0 && norm == norms[i-1] {
			h.entries[i] = h.entries[i-1]
			continue
		}
		h.entries[i] = c.entry(w.DB, norm)
		h.distinct++
	}
	base.handles.Store(h)
	return h.entries
}

// estimate prices one statement under p, from its atom when it has one.
func (c *stmtCache) estimate(e *stmtEntry, p optimizer.Params) (float64, error) {
	if e.err != nil {
		return 0, e.err
	}
	e.mu.Lock()
	held := e.atoms.Len()
	est, ok := e.atoms.Get(p)
	if n := e.atoms.Len(); n != held { // an old-generation hit retired a generation
		addAtoms(n - held)
	}
	e.mu.Unlock()
	if ok {
		mAtomHit.Inc()
		return est, nil
	}
	pl, err := e.pq.Optimize(p)
	if err != nil {
		return 0, err
	}
	est = pl.EstimatedSeconds()
	mAtomMiss.Inc()
	e.mu.Lock()
	if !e.stale {
		held = e.atoms.Len()
		e.atoms.Put(p, est)
		addAtoms(e.atoms.Len() - held)
	}
	e.mu.Unlock()
	return est, nil
}

// retire drops the atoms of an entry the cache has replaced.
func (e *stmtEntry) retire() {
	e.mu.Lock()
	n := e.atoms.Len()
	e.atoms, e.stale = memo.Gen[optimizer.Params, float64]{}, true
	e.mu.Unlock()
	if n > 0 {
		mAtomEvict.Add(int64(n))
		addAtoms(-n)
	}
}

// atomCount is the number of atoms held by every statement cache of the
// process. A discarded model's atoms are not subtracted, nor those of a
// statement evicted from its cache: specs holding its handle still use
// them.
var atomCount atomic.Int64

func addAtoms(n int) { gAtomSize.Set(float64(atomCount.Add(int64(n)))) }
