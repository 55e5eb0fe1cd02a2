package catalog

import (
	"math"
	"sort"

	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

const (
	histogramBuckets = 50
	maxMCVs          = 10
	// maxSampleKeys bounds per-column memory during Analyze; beyond it,
	// systematic sampling keeps every k-th key.
	maxSampleKeys = 200000
)

// Analyze scans the table and computes optimizer statistics for the table,
// every column, and every index, storing them on the catalog objects. It
// is the engine's ANALYZE command.
func Analyze(pg storage.Pager, t *Table) error {
	nCols := len(t.Schema.Cols)
	type colAcc struct {
		nulls   int64
		keys    []float64 // sort keys of non-null values, in physical order
		width   float64
		stride  int64
		counter int64
	}
	accs := make([]colAcc, nCols)
	for i := range accs {
		accs[i].stride = 1
	}
	var rows int64
	var totalBytes int64

	err := t.Heap.Scan(pg, func(_ storage.TID, tup storage.Tuple) error {
		rows++
		totalBytes += int64(storage.EncodedLen(tup))
		for i := 0; i < nCols && i < len(tup); i++ {
			a := &accs[i]
			v := tup[i]
			if v.IsNull() {
				a.nulls++
				continue
			}
			if v.Kind == types.KindString {
				a.width += float64(len(v.S))
			} else {
				a.width += 8
			}
			a.counter++
			if a.counter%a.stride != 0 {
				continue
			}
			if k, ok := v.ToSortKey(); ok {
				a.keys = append(a.keys, k)
				if len(a.keys) >= 2*maxSampleKeys {
					// Decimate: keep every other key, double the stride.
					kept := a.keys[:0]
					for j := 0; j < len(a.keys); j += 2 {
						kept = append(kept, a.keys[j])
					}
					a.keys = kept
					a.stride *= 2
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	stats := &TableStats{
		NumRows:  rows,
		NumPages: int64(pg.NumPages(t.Heap.FileID())),
		Cols:     make([]ColumnStats, nCols),
	}
	if rows > 0 {
		stats.AvgTupleBytes = float64(totalBytes) / float64(rows)
	}
	for i := range accs {
		a := &accs[i]
		cs := &stats.Cols[i]
		if rows > 0 {
			cs.NullFrac = float64(a.nulls) / float64(rows)
		}
		nonNull := rows - a.nulls
		if nonNull > 0 {
			cs.AvgWidth = a.width / float64(nonNull)
		}
		buildDistribution(cs, a.keys, nonNull)
	}
	t.Stats = stats

	for _, ix := range t.Indexes {
		if err := analyzeIndex(pg, ix, accs[ix.Col].keys); err != nil {
			return err
		}
	}
	return nil
}

// buildDistribution fills NDistinct, Min/Max, MCVs, and the histogram from
// the sampled sort keys. keys arrive in physical row order; nonNull is the
// true (unsampled) non-null row count.
func buildDistribution(cs *ColumnStats, keys []float64, nonNull int64) {
	if len(keys) == 0 {
		return
	}
	sorted := append([]float64(nil), keys...)
	sort.Float64s(sorted)
	cs.HasRange = true
	cs.Min = sorted[0]
	cs.Max = sorted[len(sorted)-1]

	// Count distinct values and frequencies in one pass over sorted keys.
	type vf struct {
		key   float64
		count int64
	}
	var freqs []vf
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		freqs = append(freqs, vf{key: sorted[i], count: int64(j - i)})
		i = j
	}
	cs.NDistinct = float64(len(freqs))

	// MCVs: values noticeably more frequent than average.
	sort.Slice(freqs, func(i, j int) bool { return freqs[i].count > freqs[j].count })
	avg := float64(len(keys)) / float64(len(freqs))
	sample := float64(len(keys))
	for i := 0; i < len(freqs) && i < maxMCVs; i++ {
		if float64(freqs[i].count) <= 1.25*avg || freqs[i].count < 2 {
			break
		}
		cs.MCVs = append(cs.MCVs, MCV{
			Key:  freqs[i].key,
			Freq: float64(freqs[i].count) / sample * (1 - cs.NullFrac),
		})
	}

	// Histogram over values outside the MCV list (PostgreSQL-style).
	mcvSet := map[float64]bool{}
	for _, m := range cs.MCVs {
		mcvSet[m.Key] = true
	}
	rest := sorted[:0:0]
	for _, k := range sorted {
		if !mcvSet[k] {
			rest = append(rest, k)
		}
	}
	if len(rest) >= 2 {
		b := histogramBuckets
		if b > len(rest)-1 {
			b = len(rest) - 1
		}
		bounds := make([]float64, b+1)
		for i := 0; i <= b; i++ {
			idx := i * (len(rest) - 1) / b
			bounds[i] = rest[idx]
		}
		cs.Histogram = bounds
	}
	_ = nonNull
}

// analyzeIndex computes the index's page statistics and its physical
// correlation: the Pearson correlation between key values in physical heap
// order and the row position, which the optimizer uses to interpolate
// between random and sequential heap access costs for index scans.
func analyzeIndex(pg storage.Pager, ix *Index, keysInPhysicalOrder []float64) error {
	entries, err := ix.Tree.NumEntries(pg)
	if err != nil {
		return err
	}
	height, err := ix.Tree.Height(pg)
	if err != nil {
		return err
	}
	ix.Stats = &IndexStats{
		NumPages:    int64(pg.NumPages(ix.Tree.FileID())),
		Height:      height,
		NumEntries:  entries,
		Correlation: correlation(keysInPhysicalOrder),
	}
	return nil
}

// correlation returns the Pearson correlation between the values and their
// positions 0..n-1.
func correlation(vals []float64) float64 {
	n := float64(len(vals))
	if n < 2 {
		return 1
	}
	var sumX, sumY, sumXY, sumXX, sumYY float64
	for i, v := range vals {
		x := float64(i)
		sumX += x
		sumY += v
		sumXY += x * v
		sumXX += x * x
		sumYY += v * v
	}
	cov := sumXY - sumX*sumY/n
	varX := sumXX - sumX*sumX/n
	varY := sumYY - sumY*sumY/n
	if varX <= 0 || varY <= 0 {
		return 1 // constant sequence: physically perfectly clustered
	}
	r := cov / math.Sqrt(varX*varY)
	switch {
	case r > 1:
		return 1
	case r < -1:
		return -1
	default:
		return r
	}
}
