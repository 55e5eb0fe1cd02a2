package placement

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dbvirt/internal/obs"
)

// ErrEvent marks Apply failures caused by the event itself (unknown
// tenant, duplicate arrival, malformed payload) rather than by the solve;
// servers map it to a client error.
var ErrEvent = errors.New("placement: invalid event")

// ErrDuplicateName marks a Solve refused for a tenant list that names one
// tenant twice; servers map it to a client error.
var ErrDuplicateName = errors.New("placement: duplicate tenant name")

// IsEventError reports whether err is caller-caused (wraps ErrEvent).
func IsEventError(err error) bool { return errors.Is(err, ErrEvent) }

// EventType classifies a fleet change.
type EventType int

const (
	// Arrive adds a new tenant to the fleet.
	Arrive EventType = iota
	// Leave removes a tenant by name.
	Leave
	// Drift replaces an existing tenant's workload spec under the same
	// name.
	Drift
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case Arrive:
		return "arrive"
	case Leave:
		return "leave"
	case Drift:
		return "drift"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// ParseEventType parses the wire form of an EventType.
func ParseEventType(s string) (EventType, error) {
	switch s {
	case "arrive":
		return Arrive, nil
	case "leave":
		return Leave, nil
	case "drift":
		return Drift, nil
	default:
		return 0, fmt.Errorf("%w: unknown event type %q", ErrEvent, s)
	}
}

// Event is one fleet change. Arrive and Drift carry the tenant; Leave
// carries only the name.
type Event struct {
	Type   EventType
	Tenant *Tenant
	Name   string
}

// ApplyStats summarizes one incremental pass: how many machines were
// dirty (freshly solved) versus served from the memo, on top of the
// regular solve stats.
type ApplyStats struct {
	Events int `json:"events"`
	SolveStats
}

// Apply folds fleet events into the placement and re-solves. The pass is
// the one a from-scratch Solve runs, so the result is bit-identical to
// solving the final tenant set cold; what makes it incremental is what it
// reuses:
//
//   - the placement's per-tenant state — sorted fleet, shuffled packing
//     sequences, each tenant's feature and group — patched per event by
//     O(n) memmoves, so only arrivals and drifts are featurized and no
//     tenant is sorted, hashed or looked up in a map;
//   - its classes, unless the events changed the set of groups, and the
//     solver's feature-distance memo when they did;
//   - the solver's machine-solve memo, keyed by a 64-bit hash of each
//     machine's shape: only shapes the solver has never priced (the dirty
//     worklist) reach a per-machine solver.
//
// One event re-keys about half the machines of every shuffled order
// (chunk packing shifts every later boundary), so the worklist is short
// only while the memo outlives the placement: the shape space is closed
// and a long-lived solver converges on it (DESIGN.md §14). Every
// solver-lifetime table is a memo.Gen, bounded at two generations.
//
// The pass writes into the placement's spare buffer set — the arrays of
// the placement before this one — and on success the set that backed the
// old placement becomes the spare, so a steady stream of events allocates
// only a handful of objects per event.
//
// Apply is atomic: on error the placement is unchanged. On success the
// receiver is updated in place, and slices taken from it before the call
// (Classes, Machines and the Tenants and Members inside them) may be
// overwritten by the next Apply; see Placement.
func (pl *Placement) Apply(ctx context.Context, events ...Event) (*ApplyStats, error) {
	start := time.Now()
	s := pl.solver
	if s == nil {
		return nil, fmt.Errorf("placement: not produced by a Solver")
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("%w: no events", ErrEvent)
	}
	sp := obs.StartSpan("placement.apply")
	defer sp.End()

	// Copy the per-tenant state into the spare buffers — the arrays of the
	// placement before this one, which no live slice of pl shares — then
	// patch it per event: O(n) memmoves instead of the fleet-wide sorts and
	// featurization a cold Solve pays. An arrival or drift leaves its
	// tenant unfeaturized (feature nil, group -1) for the pass to fill in;
	// an arrival's name is rendered for the encoder here, once.
	b := pl.spare
	if b == nil {
		b = new(passBufs)
		pl.spare = b
	}
	f := pl.fleetState
	extra := len(events)
	f.ts = refill(b.ts, pl.ts, extra)
	f.feat = refill(b.feat, pl.feat, extra)
	f.fid = refill(b.fid, pl.fid, extra)
	f.quoted = refill(b.quoted, pl.quoted, extra)
	f.seqs = reuse(&b.seqs, len(pl.seqs))
	for o, sq := range pl.seqs {
		f.seqs[o] = refill(f.seqs[o], sq, extra)
	}
	for i, ev := range events {
		switch ev.Type {
		case Arrive:
			if err := validTenant(ev.Tenant); err != nil {
				return nil, fmt.Errorf("%w: event %d (arrive): %v", ErrEvent, i, err)
			}
			p, ok := searchTenants(f.ts, ev.Tenant.Name)
			if ok {
				return nil, fmt.Errorf("%w: event %d: arrive %q: tenant already present", ErrEvent, i, ev.Tenant.Name)
			}
			f.ts = slices.Insert(f.ts, p, ev.Tenant)
			f.feat = slices.Insert(f.feat, p, nil)
			f.fid = slices.Insert(f.fid, p, -1)
			f.quoted = slices.Insert(f.quoted, p, quote(ev.Tenant.Name))
			for o := range f.seqs {
				f.seqs[o] = seqInsert(f.seqs[o], f.ts, s.cfg.Seed, uint64(o+1), int32(p))
			}
		case Leave:
			name := ev.Name
			if name == "" && ev.Tenant != nil {
				name = ev.Tenant.Name
			}
			p, ok := searchTenants(f.ts, name)
			if !ok {
				return nil, fmt.Errorf("%w: event %d: leave %q: unknown tenant", ErrEvent, i, name)
			}
			for o := range f.seqs {
				f.seqs[o] = seqRemove(f.seqs[o], f.ts, s.cfg.Seed, uint64(o+1), int32(p))
			}
			f.ts = slices.Delete(f.ts, p, p+1)
			f.feat = slices.Delete(f.feat, p, p+1)
			f.fid = slices.Delete(f.fid, p, p+1)
			f.quoted = slices.Delete(f.quoted, p, p+1)
		case Drift:
			if err := validTenant(ev.Tenant); err != nil {
				return nil, fmt.Errorf("%w: event %d (drift): %v", ErrEvent, i, err)
			}
			p, ok := searchTenants(f.ts, ev.Tenant.Name)
			if !ok {
				return nil, fmt.Errorf("%w: event %d: drift %q: unknown tenant", ErrEvent, i, ev.Tenant.Name)
			}
			// Same name — same sequence positions, same quoted name; only
			// the payload changes.
			f.ts[p], f.feat[p], f.fid[p] = ev.Tenant, nil, -1
		default:
			return nil, fmt.Errorf("%w: event %d: unknown type %d", ErrEvent, i, int(ev.Type))
		}
	}
	if len(f.ts) == 0 {
		return nil, fmt.Errorf("%w: events empty the fleet", ErrEvent)
	}

	npl, err := s.place(ctx, f, b)
	if err != nil {
		return nil, err
	}
	// The buffers that backed the old placement are the next spare.
	old := pl.bufs
	*pl = npl
	pl.spare = old
	stats := &ApplyStats{Events: len(events), SolveStats: pl.Stats}
	mApplyCount.Inc()
	mDirtyMachines.Add(int64(stats.MachineSolves))
	hApplySeconds.Observe(time.Since(start).Seconds())
	sp.SetArg("events", stats.Events)
	sp.SetArg("dirty_machines", stats.MachineSolves)
	sp.SetArg("memo_hits", stats.MemoHits)
	return stats, nil
}

// searchTenants locates name in the sorted tenant slice, returning its
// position (or insertion point) and whether it is present.
func searchTenants(ts []*Tenant, name string) (int, bool) {
	i := sort.Search(len(ts), func(i int) bool { return ts[i].Name >= name })
	return i, i < len(ts) && ts[i].Name == name
}

// seqSearch finds the position of (key, name) in a (key, name)-sorted
// shuffle sequence; entry indices must already be consistent with ts.
func seqSearch(seq []seqEnt, ts []*Tenant, key uint64, name string) int {
	return sort.Search(len(seq), func(i int) bool {
		if seq[i].key != key {
			return seq[i].key > key
		}
		return ts[seq[i].idx].Name >= name
	})
}

// seqInsert updates one shuffle sequence for a tenant just inserted at ts
// position p: entries at or past p shift up one, then the new tenant is
// placed at its (key, name) position.
func seqInsert(seq []seqEnt, ts []*Tenant, seed, order uint64, p int32) []seqEnt {
	for i := range seq {
		if seq[i].idx >= p {
			seq[i].idx++
		}
	}
	key := shuffleKey(seed, order, ts[p].Name)
	at := seqSearch(seq, ts, key, ts[p].Name)
	seq = append(seq, seqEnt{})
	copy(seq[at+1:], seq[at:])
	seq[at] = seqEnt{key: key, idx: p}
	return seq
}

// seqRemove updates one shuffle sequence for the tenant about to be
// removed from ts position p (ts must still contain it), dropping its
// entry and shifting later indices down one.
func seqRemove(seq []seqEnt, ts []*Tenant, seed, order uint64, p int32) []seqEnt {
	key := shuffleKey(seed, order, ts[p].Name)
	at := seqSearch(seq, ts, key, ts[p].Name)
	seq = append(seq[:at], seq[at+1:]...)
	for i := range seq {
		if seq[i].idx > p {
			seq[i].idx--
		}
	}
	return seq
}
