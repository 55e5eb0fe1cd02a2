package placement

import (
	"slices"
	"strings"
)

// classMeta is the packing/pricing view of one workload class: every
// member is priced and sized by the class representative, so machines
// holding the same class multiset are interchangeable (and hit the same
// solve memo key).
type classMeta struct {
	repKey string // PricingKey of the representative's spec
	repID  int    // solver-interned dense id of repKey
	rank   int    // position of (repKey, class id) in lexical order
	rep    *Tenant
	demand [3]float64
	scalar float64
}

// seqEnt is one tenant's position material in a shuffled packing order:
// its shuffle key and its index into the name-sorted tenant slice. The
// sequences are kept sorted by (key, name) and maintained incrementally
// across Apply, so a warm re-solve never re-sorts the fleet.
type seqEnt struct {
	key uint64
	idx int32
}

// buildSeqs sorts the fleet into each of the cfg.Orders-1 seeded shuffle
// orders (order 0, first-fit-decreasing, is derived from the class
// structure instead).
func (s *Solver) buildSeqs(ts []*Tenant) [][]seqEnt {
	seqs := make([][]seqEnt, s.cfg.Orders-1)
	for o := range seqs {
		seq := make([]seqEnt, len(ts))
		for i := range ts {
			seq[i] = seqEnt{key: shuffleKey(s.cfg.Seed, uint64(o+1), ts[i].Name), idx: int32(i)}
		}
		slices.SortFunc(seq, func(a, b seqEnt) int {
			if a.key != b.key {
				if a.key < b.key {
					return -1
				}
				return 1
			}
			return strings.Compare(ts[a.idx].Name, ts[b.idx].Name)
		})
		seqs[o] = seq
	}
	return seqs
}

// order0Sequence writes into seq (one slot per tenant) the
// first-fit-decreasing item order (scalar demand desc, class asc, name asc
// — the classic FFD heuristic), built in O(n) from the class structure:
// scalar and class are constant within a class, and members holds each
// class's name-sorted members at members[start[c]:start[c+1]]. order (one
// slot per class) is scratch.
func order0Sequence(seq []int32, order []int, members, start []int32, meta []classMeta) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if meta[a].scalar != meta[b].scalar {
			if meta[a].scalar > meta[b].scalar {
				return -1
			}
			return 1
		}
		return a - b
	})
	n := 0
	for _, ci := range order {
		n += copy(seq[n:], members[start[ci]:start[ci+1]])
	}
}

// packing holds every packing order's machines of one pass in a single
// slab of k = MaxTenants slots per machine: machine m (numbered across
// orders) holds slab[m*k : m*k+fill[m]], and order o's machines are
// [ends[o-1], ends[o]).
type packing struct {
	k     int
	slab  []int32
	fill  []int32
	ends  []int
	loads [][3]float64 // the current order's per-machine demand, under capacity caps
}

// reset empties p for a pass of the given orders over n tenants at k per
// machine, keeping its arrays.
func (p *packing) reset(k, n, orders int) {
	// Sized for the count-bound fleet; capacity caps only add machines.
	hint := orders * ((n + k - 1) / k)
	p.k = k
	p.slab = slices.Grow(p.slab[:0], hint*k)
	p.fill = slices.Grow(p.fill[:0], hint)
	p.ends = slices.Grow(p.ends[:0], orders)
	p.loads = p.loads[:0]
}

// members returns machine m's tenants.
func (p *packing) members(m int) []int32 { return p.slab[m*p.k : m*p.k+int(p.fill[m])] }

// pack appends one order's machines: the item sequence placed with
// first-fit against the capacity envelope. A tenant opens a new machine
// when no open machine fits it; a lone tenant always fits (capacity
// violations by a single tenant degrade to dedicated machines rather than
// failing the solve).
func (s *Solver) pack(p *packing, seq []int32, classOf []int32, meta []classMeta) {
	caps := [3]float64{s.cfg.Machine.CPU, s.cfg.Machine.Memory, s.cfg.Machine.IO}
	capped := caps != [3]float64{} // else every open machine fits: no loads to keep
	k := int32(p.k)
	base := len(p.fill)
	p.loads = p.loads[:0]
	// firstOpen skips the prefix of machines already at MaxTenants — a
	// count-full machine can never accept again, so first-fit is O(items)
	// when capacity caps are off instead of O(items * machines).
	firstOpen := base
	for _, ti := range seq {
		cm := &meta[classOf[ti]]
		for firstOpen < len(p.fill) && p.fill[firstOpen] >= k {
			firstOpen++
		}
		placed := false
		for m := firstOpen; m < len(p.fill); m++ {
			if p.fill[m] >= k {
				continue
			}
			if capped {
				load := &p.loads[m-base]
				fits := true
				for r, c := range caps {
					if c > 0 && load[r]+cm.demand[r] > c+1e-9 {
						fits = false
						break
					}
				}
				if !fits {
					continue
				}
				for r := range load {
					load[r] += cm.demand[r]
				}
			}
			p.slab[m*p.k+int(p.fill[m])] = ti
			p.fill[m]++
			placed = true
			break
		}
		if !placed {
			n := len(p.slab)
			p.slab = slices.Grow(p.slab, p.k)[:n+p.k]
			p.slab[n] = ti
			p.fill = append(p.fill, 1)
			if capped {
				p.loads = append(p.loads, cm.demand)
			}
		}
	}
	p.ends = append(p.ends, len(p.fill))
}

// shuffleKey is a splitmix64-style hash of (seed, order, tenant name): a
// deterministic shuffle, with no global RNG and no clock.
func shuffleKey(seed, order uint64, name string) uint64 {
	h := seed ^ (order+1)*0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// shapes interns one pass's machine shapes to dense ids. A machine's shape
// is the rep-id sequence of its tenants in canonical slot order (class
// rank, then name): the rank order is the lexical order of the rep
// pricing keys, so the sequence names the class multiset — the per-machine
// design problem, not the tenants on it — and survives arrivals,
// departures, renames and reclustering as long as an equivalent machine
// recurs. It is keyed by a 64-bit hash in an open-addressed table, and a
// hit is confirmed against the first machine seen with the shape, so a
// collision costs a probe, never a wrong key. The hash also keys the
// solver's solve memo, where a hit is confirmed against the solve's
// repIDs.
type shapes struct {
	table []int32  // open-addressed: shape id + 1, 0 when empty
	hash  []uint64 // per shape
	ref   []int32  // per shape, the first machine seen with it
}

// reset empties sh for a pass over the given number of machines, keeping
// its arrays.
func (sh *shapes) reset(machines int) {
	n := 8
	for n < 2*machines {
		n <<= 1
	}
	clear(reuse(&sh.table, n))
	sh.hash = slices.Grow(sh.hash[:0], machines)
	sh.ref = slices.Grow(sh.ref[:0], machines)
}

// intern returns the id of machine m's shape; m's tenants are already in
// slot order.
func (sh *shapes) intern(p *packing, m int, classOf []int32, meta []classMeta) int32 {
	mem := p.members(m)
	h := uint64(0)
	for _, ti := range mem {
		h = mix64(h ^ uint64(meta[classOf[ti]].repID))
	}
	mask := len(sh.table) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := sh.table[i]
		if e == 0 {
			id := int32(len(sh.hash))
			sh.table[i] = id + 1
			sh.hash = append(sh.hash, h)
			sh.ref = append(sh.ref, int32(m))
			return id
		}
		if id := e - 1; sh.hash[id] == h && sameShape(p.members(int(sh.ref[id])), mem, classOf, meta) {
			return id
		}
	}
}

// sameShape reports whether two slot-ordered machines have one shape.
func sameShape(a, b []int32, classOf []int32, meta []classMeta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if meta[classOf[a[i]]].repID != meta[classOf[b[i]]].repID {
			return false
		}
	}
	return true
}

// slotOrder sorts a machine's tenants into canonical slot order: class
// rank (lexical rep-key order, ties to class id), then tenant index —
// name order, the tenant slice being name-sorted. The induced spec
// sequence depends only on the machine's class multiset, so it is
// consistent with the memoized solve for its shape.
func slotOrder(mem []int32, classOf []int32, meta []classMeta) {
	key := func(ti int32) uint64 { return uint64(meta[classOf[ti]].rank)<<32 | uint64(ti) }
	for i := 1; i < len(mem); i++ {
		for j := i; j > 0 && key(mem[j]) < key(mem[j-1]); j-- {
			mem[j], mem[j-1] = mem[j-1], mem[j]
		}
	}
}
