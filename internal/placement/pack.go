package placement

import (
	"slices"
	"sort"
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

// order0Sequence is the first-fit-decreasing item order (scalar demand
// desc, class asc, name asc — the classic FFD heuristic), built in O(n)
// from the class structure: scalar and class are constant within a class
// and members are already name-sorted.
func order0Sequence(classMembers [][]int32, meta []classMeta) []int32 {
	order := make([]int, len(meta))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if meta[a].scalar != meta[b].scalar {
			return meta[a].scalar > meta[b].scalar
		}
		return a < b
	})
	n := 0
	for _, ms := range classMembers {
		n += len(ms)
	}
	seq := make([]int32, 0, n)
	for _, ci := range order {
		seq = append(seq, classMembers[ci]...)
	}
	return seq
}

// pack places the item sequence into machines with first-fit against the
// capacity envelope. A tenant opens a new machine when no open machine
// fits it; a lone tenant always fits (capacity violations by a single
// tenant degrade to dedicated machines rather than failing the solve).
func (s *Solver) pack(seq []int32, classOfIdx []int32, meta []classMeta) [][]int32 {
	caps := s.cfg.Machine
	// Sized for the count-bound fleet; capacity caps only add machines.
	hint := (len(seq) + caps.MaxTenants - 1) / caps.MaxTenants
	machines := make([][]int32, 0, hint)
	loads := make([][3]float64, 0, hint)
	// firstOpen skips the prefix of machines already at MaxTenants — a
	// count-full machine can never accept again, so first-fit is O(items)
	// when capacity caps are off instead of O(items * machines).
	firstOpen := 0
	for _, ti := range seq {
		cm := &meta[classOfIdx[ti]]
		for firstOpen < len(machines) && len(machines[firstOpen]) >= caps.MaxTenants {
			firstOpen++
		}
		placed := false
		for m := firstOpen; m < len(machines); m++ {
			if len(machines[m]) >= caps.MaxTenants {
				continue
			}
			fits := true
			for r := 0; r < 3; r++ {
				if c := caps.cap(r); c > 0 && loads[m][r]+cm.demand[r] > c+1e-9 {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			machines[m] = append(machines[m], ti)
			for r := 0; r < 3; r++ {
				loads[m][r] += cm.demand[r]
			}
			placed = true
			break
		}
		if !placed {
			nm := make([]int32, 1, min(caps.MaxTenants, 8))
			nm[0] = ti
			machines = append(machines, nm)
			loads = append(loads, cm.demand)
		}
	}
	return machines
}

// shuffleKey is a splitmix64-style hash of (seed, order, tenant name) —
// the same deterministic-shuffle idiom as the telemetry reservoir.
func shuffleKey(seed, order uint64, name string) uint64 {
	h := seed ^ (order+1)*0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// appendCompactKey canonicalizes a machine's content as the sorted
// multiset of its tenants' interned rep-spec ids, encoded little-endian
// into buf. The key names the per-machine design problem, not the tenants
// on it, so it survives arrivals, departures, renames, and reclustering
// as long as an equivalent machine shape recurs; interning keeps the hot
// path free of the long human-readable spec-key joins (those are built
// only for the winning machines' display keys).
func appendCompactKey(buf []byte, ids []int, members []int32, classOfIdx []int32, meta []classMeta) ([]byte, []int) {
	ids = ids[:0]
	for _, ti := range members {
		ids = append(ids, meta[classOfIdx[ti]].repID)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	buf = buf[:0]
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return buf, ids
}

// slotMembers returns the machine's members in canonical slot order:
// class rank (lexical rep-key order, ties to class id) then tenant name.
// The induced spec sequence depends only on the machine's class multiset,
// so it is consistent with the memoized solve for the machine's key.
func slotMembers(members []int32, classOfIdx []int32, meta []classMeta, ts []*Tenant) []int32 {
	slot := append([]int32(nil), members...)
	slices.SortFunc(slot, func(a, b int32) int {
		ra, rb := meta[classOfIdx[a]].rank, meta[classOfIdx[b]].rank
		if ra != rb {
			return ra - rb
		}
		return strings.Compare(ts[a].Name, ts[b].Name)
	})
	return slot
}
