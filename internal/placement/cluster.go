package placement

import (
	"slices"
	"strings"
)

// Groups are the unit of clustering: all tenants sharing one feature
// signature, which are interchangeable for every downstream step.
// Grouping first makes the clustering pass O(groups²) instead of
// O(tenants²) — a fleet of thousands of tenants typically collapses to a
// few dozen signatures — and makes the outcome independent of tenant
// order and multiplicity by construction. A placement keeps its group
// table (the features present, signature-sorted: the canonical clustering
// input order) and each tenant's dense index into it, so a pass patches
// the table for the tenants an event featurized instead of hashing every
// tenant again.

func bySig(a, b *feature) int { return strings.Compare(a.sig, b.sig) }

func sameSig(a, b *feature) bool { return a.sig == b.sig }

// regroup brings the group table old up to date with the tenants'
// features and rewrites fid, the tenants' group indices, in place. A
// tenant with fid < 0 (an arrival, a drift, or every tenant of a cold
// solve) is looked up by signature, founding a group if its signature is
// new; groups left without members are dropped. It returns the table —
// each group represented by the feature of its first member, the
// lexicographically smallest name since feat is name-ordered — and each
// group's first member, written over the arrays of fsBuf and firstBuf
// (neither may share old's).
func regroup(feat []*feature, fid []int32, old, fsBuf []*feature, firstBuf []int32) (fs []*feature, first []int32) {
	var novel []*feature
	for i, g := range fid {
		if g < 0 {
			if _, ok := slices.BinarySearchFunc(old, feat[i], bySig); !ok {
				novel = append(novel, feat[i])
			}
		}
	}
	fs, remap := old, []int32(nil)
	if len(novel) > 0 {
		fs = append(slices.Clone(old), novel...)
		slices.SortFunc(fs, bySig)
		fs = slices.CompactFunc(fs, sameSig)
		remap = make([]int32, len(old))
		for g, f := range old {
			j, _ := slices.BinarySearchFunc(fs, f, bySig)
			remap[g] = int32(j)
		}
	}
	first = reuse(&firstBuf, len(fs))
	for g := range first {
		first[g] = -1
	}
	for i, g := range fid {
		switch {
		case g < 0:
			j, _ := slices.BinarySearchFunc(fs, feat[i], bySig)
			g = int32(j)
		case remap != nil:
			g = remap[g]
		}
		fid[i] = g
		if first[g] < 0 {
			first[g] = int32(i)
		}
	}
	// Drop the groups the events emptied.
	live := 0
	for g := range first {
		if first[g] >= 0 {
			live++
		}
	}
	if live < len(fs) {
		remap = make([]int32, len(fs))
		n := 0
		for g := range first {
			if first[g] >= 0 {
				remap[g] = int32(n)
				first[n] = first[g]
				n++
			}
		}
		first = first[:n]
		for i, g := range fid {
			fid[i] = remap[g]
		}
	}
	fs = reuse(&fsBuf, len(first))
	for g, i := range first {
		fs[g] = feat[i]
	}
	return fs, first
}

// clusterClasses runs the deterministic greedy-agglomerative pass over the
// signature-sorted groups: each joins the first existing class whose
// leader is within the threshold, else founds a new class. It returns
// each group's class and each class's leader group. The outcome depends
// only on the set of signatures present — never on tenant order, arrival
// order, or multiplicity — which is what makes an incremental re-solve
// bit-identical to a from-scratch one, and what lets place skip the pass
// while the signatures are unchanged. The results are written over the
// arrays of clsBuf and leadBuf; placement.recluster.count counts passes.
func (s *Solver) clusterClasses(fs []*feature, clsBuf, leadBuf []int32) (cls, leaders []int32) {
	mRecluster.Inc()
	cls, leaders = reuse(&clsBuf, len(fs)), leadBuf[:0]
	for g, f := range fs {
		c := 0
		for c < len(leaders) && s.distance(fs[leaders[c]], f) > s.cfg.Threshold {
			c++
		}
		if c == len(leaders) {
			leaders = append(leaders, int32(g))
		}
		cls[g] = int32(c)
	}
	return cls, leaders
}

// distance is the memoized feature distance. Features are immutable once
// built, so a pair's distance is keyed by identity.
func (s *Solver) distance(a, b *feature) float64 {
	k := [2]*feature{a, b}
	s.mu.Lock()
	d, ok := s.dists.Get(k)
	s.mu.Unlock()
	if !ok {
		d = distance(a, b)
		s.mu.Lock()
		s.dists.Put(k, d)
		s.mu.Unlock()
	}
	return d
}
