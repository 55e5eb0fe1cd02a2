package placement

import (
	"context"
	"fmt"
	"strings"

	"dbvirt/internal/core"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
)

// probeShares are the cost-summary probe points for tenants without
// observed telemetry: a balanced baseline plus one starvation probe per
// resource. The starved predictions double as the tenant's bin-packing
// demand vector — a workload that collapses when CPU-starved is expensive
// to co-locate with CPU-hungry neighbors.
var probeShares = [4]vm.Shares{
	{CPU: 0.5, Memory: 0.5, IO: 0.5},
	{CPU: 0.25, Memory: 0.5, IO: 0.5},
	{CPU: 0.5, Memory: 0.25, IO: 0.5},
	{CPU: 0.5, Memory: 0.5, IO: 0.25},
}

// feature is one tenant's clustering coordinate: the statement-support
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

// features derives (memoized) the feature of every tenant in the
// name-sorted slice ts, returning the parallel feature slice. Probe costs
// for specs not yet priced are warmed in parallel over the worker pool;
// everything observable is deterministic regardless of scheduling.
func (s *Solver) features(ctx context.Context, ts []*Tenant) ([]*feature, error) {
	// Collect the distinct specs that still need probe pricing, in
	// tenant-name order, deduplicated by cost identity (Spec.Base: what is
	// memoized per spec here — statements and probe costs — is the same
	// for every weight and SLO of a workload).
	var pending []*core.WorkloadSpec
	seen := make(map[*core.WorkloadSpec]bool)
	s.mu.Lock()
	for _, t := range ts {
		base := t.Spec.Base()
		if len(t.CostSummary) > 0 || seen[base] {
			continue
		}
		if _, ok := s.probes[base]; !ok {
			seen[base] = true
			pending = append(pending, base)
		}
	}
	s.mu.Unlock()
	if len(pending) > 0 {
		probed := make([][]float64, len(pending))
		if err := core.ParallelFor(ctx, s.workers(), len(pending), func(_, i int) error {
			costs, err := s.probe(ctx, pending[i])
			if err != nil {
				return err
			}
			probed[i] = costs
			return nil
		}); err != nil {
			return nil, err
		}
		s.mu.Lock()
		for i, spec := range pending {
			s.probes[spec] = probed[i]
		}
		s.mu.Unlock()
	}

	// Batch the per-spec feature-memo scan under one lock: a warm fleet of
	// interned specs resolves every tenant here, and only first sightings
	// fall through to the build path below.
	feats := make([]*feature, len(ts))
	reused := 0
	var miss []int
	s.mu.Lock()
	for i, t := range ts {
		if t.Sketch == nil && len(t.CostSummary) == 0 {
			if f, ok := s.feats[t.Spec.Base()]; ok {
				feats[i] = f
				reused++
				continue
			}
		}
		miss = append(miss, i)
	}
	s.mu.Unlock()
	if reused > 0 {
		mNormalizeReused.Add(int64(reused))
	}
	for _, i := range miss {
		f, err := s.featureOf(ctx, ts[i])
		if err != nil {
			return nil, fmt.Errorf("placement: featurizing %s: %w", ts[i].Name, err)
		}
		feats[i] = f
	}
	return feats, nil
}

func (s *Solver) featureOf(ctx context.Context, t *Tenant) (*feature, error) {
	// A tenant without observed telemetry is featurized purely from its
	// spec, so the whole feature (sketch, probes, signature, demand) is
	// memoized per cost identity: 10,000 interned tenants cost O(distinct
	// specs) normalization and signature work, counted by the
	// placement.normalize.reused metric.
	derived := t.Sketch == nil && len(t.CostSummary) == 0
	base := t.Spec.Base()
	if derived {
		s.mu.Lock()
		f, ok := s.feats[base]
		s.mu.Unlock()
		if ok {
			mNormalizeReused.Inc()
			return f, nil
		}
	}
	f, err := s.buildFeature(ctx, t)
	if err != nil {
		return nil, err
	}
	if derived {
		s.mu.Lock()
		if prev, ok := s.feats[base]; ok {
			f = prev
		} else {
			s.feats[base] = f
		}
		s.mu.Unlock()
	}
	return f, nil
}

func (s *Solver) buildFeature(ctx context.Context, t *Tenant) (*feature, error) {
	sk := t.Sketch
	if sk == nil {
		sk = s.sketchFor(t.Spec)
	}
	costs := t.CostSummary
	if len(costs) == 0 {
		var err error
		if costs, err = s.probedCosts(ctx, t.Spec); err != nil {
			return nil, err
		}
	}
	f := &feature{sketch: sk, costs: costs, sig: featureSig(sk, costs)}
	if len(costs) == len(probeShares) {
		f.demand = [3]float64{costs[1], costs[2], costs[3]}
	} else {
		// Observed summaries carry no per-resource axis; spread the mean.
		mean := 0.0
		for _, c := range costs {
			mean += c
		}
		mean /= float64(len(costs))
		f.demand = [3]float64{mean, mean, mean}
	}
	for _, d := range f.demand {
		if d > f.scalar {
			f.scalar = d
		}
	}
	return f, nil
}

// sketchFor returns the derived statement-support sketch for a spec,
// building it at most once per spec from WorkloadSpec.NormalizedStatements
// (itself a sync.Once cache). The placement.normalize.reused counter
// counts lookups served without re-normalizing — with interned specs it
// grows with fleet size while normalization work stays O(distinct specs).
func (s *Solver) sketchFor(spec *core.WorkloadSpec) *telemetry.TopK {
	spec = spec.Base()
	s.mu.Lock()
	if sk, ok := s.sketches[spec]; ok {
		s.mu.Unlock()
		mNormalizeReused.Inc()
		return sk
	}
	s.mu.Unlock()
	sk := telemetry.NewTopK(s.cfg.SketchK)
	for _, q := range spec.NormalizedStatements() {
		sk.Update(q, 1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.sketches[spec]; ok {
		return prev
	}
	s.sketches[spec] = sk
	return sk
}

// probedCosts returns the memoized probe vector, computing it on demand
// (the parallel warm path in features covers the common case).
func (s *Solver) probedCosts(ctx context.Context, spec *core.WorkloadSpec) ([]float64, error) {
	spec = spec.Base()
	s.mu.Lock()
	costs, ok := s.probes[spec]
	s.mu.Unlock()
	if ok {
		return costs, nil
	}
	costs, err := s.probe(ctx, spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.probes[spec]; ok {
		return prev, nil
	}
	s.probes[spec] = costs
	return costs, nil
}

func (s *Solver) probe(ctx context.Context, spec *core.WorkloadSpec) ([]float64, error) {
	costs := make([]float64, len(probeShares))
	for i, sh := range probeShares {
		c, err := s.model.Cost(ctx, spec, sh)
		if err != nil {
			return nil, fmt.Errorf("placement: probing %s at %v: %w", spec.Name, sh, err)
		}
		costs[i] = c
	}
	return costs, nil
}

// featureSig canonicalizes a feature's content. Equal signatures imply
// equal sketches (entries and total mass) and equal cost summaries, so
// signature grouping is sound for clustering and for memo keys.
func featureSig(sk *telemetry.TopK, costs []float64) string {
	var b strings.Builder
	if sk != nil {
		fmt.Fprintf(&b, "t%d\x1e", sk.Total())
		for _, e := range sk.Snapshot() {
			fmt.Fprintf(&b, "%s\x00%d\x00%d\x1f", e.Key, e.Count, e.Err)
		}
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
	if len(a) != len(b) {
		return 1
	}
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
