package placement

import (
	"context"
	"fmt"
	"strings"

	"dbvirt/internal/core"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
)

// probeShares are the cost-summary probe points: a balanced baseline
// plus one starvation probe per resource. The starved predictions double
// as the tenant's bin-packing demand vector — a workload that collapses
// when CPU-starved is expensive to co-locate with CPU-hungry neighbors.
var probeShares = [4]vm.Shares{
	{CPU: 0.5, Memory: 0.5, IO: 0.5},
	{CPU: 0.25, Memory: 0.5, IO: 0.5},
	{CPU: 0.5, Memory: 0.25, IO: 0.5},
	{CPU: 0.5, Memory: 0.5, IO: 0.25},
}

// feature is one spec's clustering coordinate: the statement-support
// sketch, the predicted-cost summary, the packing demand derived from it,
// and a canonical content signature. Tenants with equal signatures are
// interchangeable for every downstream step.
type feature struct {
	sketch *telemetry.TopK
	costs  []float64
	demand [3]float64
	scalar float64
	sig    string
}

// features fills in the nil entries of feat, the features of the
// name-sorted tenants ts: every tenant of a cold solve, only the arrivals
// and drifts of an Apply. A feature is a function of the spec's cost
// identity (Spec.Base: statements and probe costs are the same for every
// weight and SLO of a workload), memoized per base, so 10,000 interned
// tenants cost O(distinct specs) normalization and probe work; the
// placement.normalize.reused metric counts the tenants served without a
// build. Missing features are built in parallel over the worker pool;
// everything observable is deterministic regardless of scheduling.
func (s *Solver) features(ctx context.Context, ts []*Tenant, feat []*feature) error {
	var pending []*core.WorkloadSpec // distinct bases to build, in tenant-name order
	var slot map[*core.WorkloadSpec]int
	var miss []int
	reused := 0
	s.mu.Lock()
	for i, t := range ts {
		if feat[i] != nil {
			continue
		}
		base := t.Spec.Base()
		if f, ok := s.feats.Get(base); ok {
			feat[i] = f
			reused++
			continue
		}
		if slot == nil {
			slot = make(map[*core.WorkloadSpec]int)
		}
		if _, ok := slot[base]; !ok {
			slot[base] = len(pending)
			pending = append(pending, base)
		}
		miss = append(miss, i)
	}
	s.mu.Unlock()
	if reused += len(miss) - len(pending); reused > 0 {
		mNormalizeReused.Add(int64(reused))
	}
	if len(pending) == 0 {
		return nil
	}
	built := make([]*feature, len(pending))
	if err := core.ParallelFor(ctx, s.workers(), len(pending), func(_, i int) error {
		f, err := s.buildFeature(ctx, pending[i])
		if err != nil {
			return fmt.Errorf("placement: featurizing %s: %w", pending[i].Name, err)
		}
		built[i] = f
		return nil
	}); err != nil {
		return err
	}
	s.mu.Lock()
	for i, base := range pending {
		if prev, ok := s.feats.Get(base); ok {
			built[i] = prev
		} else {
			s.feats.Put(base, built[i])
		}
	}
	s.mu.Unlock()
	for _, i := range miss {
		feat[i] = built[slot[ts[i].Spec.Base()]]
	}
	return nil
}

// sketchK is the top-k capacity of the statement sketches.
const sketchK = 32

// buildFeature derives a spec's feature: its normalized-statement sketch
// and its starvation-probe costs.
func (s *Solver) buildFeature(ctx context.Context, spec *core.WorkloadSpec) (*feature, error) {
	sk := telemetry.NewTopK(sketchK)
	for _, q := range spec.NormalizedStatements() {
		sk.Update(q, 1)
	}
	costs := make([]float64, len(probeShares))
	for i, sh := range probeShares {
		c, err := s.model.Cost(ctx, spec, sh)
		if err != nil {
			return nil, fmt.Errorf("probing at %v: %w", sh, err)
		}
		costs[i] = c
	}
	f := &feature{sketch: sk, costs: costs, sig: featureSig(sk, costs)}
	f.demand = [3]float64{costs[1], costs[2], costs[3]}
	for _, d := range f.demand {
		if d > f.scalar {
			f.scalar = d
		}
	}
	return f, nil
}

// featureSig canonicalizes a feature's content. Equal signatures imply
// equal sketches (entries and total mass) and equal cost summaries, so
// signature grouping is sound for clustering and for memo keys.
func featureSig(sk *telemetry.TopK, costs []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t%d\x1e", sk.Total())
	for _, e := range sk.Snapshot() {
		fmt.Fprintf(&b, "%s\x00%d\x00%d\x1f", e.Key, e.Count, e.Err)
	}
	b.WriteString("\x1e")
	for _, c := range costs {
		fmt.Fprintf(&b, "%.12g\x1f", c)
	}
	return b.String()
}

// distance scores two features in [0, 1]: the worse of the sketch
// total-variation distance (what the tenants run) and the relative
// cost-vector distance (what it costs). Identical features score 0, so
// merging tenants with identical sketches and summaries can never split
// or add classes.
func distance(a, b *feature) float64 {
	d := telemetry.Distance(a.sketch, b.sketch)
	if dc := costDistance(a.costs, b.costs); dc > d {
		d = dc
	}
	return d
}

func costDistance(a, b []float64) float64 {
	num, den := 0.0, 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		num += d
		aa, bb := a[i], b[i]
		if aa < 0 {
			aa = -aa
		}
		if bb < 0 {
			bb = -bb
		}
		den += aa + bb
	}
	if den == 0 {
		return 0
	}
	d := num / den
	if d > 1 {
		d = 1
	}
	return d
}
