package experiments

import (
	"context"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/vm"
)

// SyntheticGrid builds a deterministic parameter lattice over the given
// share axes without running any calibration experiments. The parameter
// surface is a plausible stand-in for a calibrated grid: CPU costs
// (relative to one sequential page fetch) grow as the CPU share shrinks
// or the I/O share grows, the cache assumption and work_mem scale with
// the memory share, and the seconds-per-page conversion scales with the
// inverse I/O share. The spread is wide enough to flip access paths and
// join methods across the lattice, which is exactly what the what-if
// re-costing benchmarks and differential tests need — reproducibly, and
// with no dependence on calibration measurements.
func SyntheticGrid(cpus, mems, ios []float64) (*calibration.Grid, error) {
	points := make([]optimizer.Params, 0, len(cpus)*len(mems)*len(ios))
	for _, c := range cpus {
		for _, m := range mems {
			for _, io := range ios {
				points = append(points, syntheticParams(c, m, io))
			}
		}
	}
	return calibration.NewGrid(cpus, mems, ios, points)
}

// syntheticParams maps one allocation to a parameter vector. Each field
// is a smooth monotone function of the shares, so trilinear
// interpolation between lattice points stays well-behaved.
func syntheticParams(cpu, mem, io float64) optimizer.Params {
	p := optimizer.DefaultParams()
	// Faster I/O makes a page fetch cheap in wall time, so CPU work costs
	// more pages-worth; a bigger CPU share pushes the other way.
	rel := io / cpu
	p.CPUTupleCost = 0.01 * rel
	p.CPUIndexTupleCost = 0.005 * rel
	p.CPUOperatorCost = 0.0025 * rel
	// Seeks amortize better at higher I/O shares (deeper queues).
	p.RandomPageCost = 1 + 3/io
	p.EffectiveCacheSizePages = int64(16384*mem + 0.5)
	p.WorkMemBytes = int64(float64(16<<20)*mem + 0.5)
	p.TimePerSeqPage = 1e-4 / io
	p.Overlap = 0.3
	return p
}

// CostMatrix prices every workload at every allocation through the
// model and returns the dense workload-major result matrix:
// out[i][j] = Cost(specs[i], allocs[j]). This is the inner loop of the
// paper's design search — one what-if cost per (workload, candidate
// allocation) pair — isolated so benchmarks and equivalence tests can
// drive it directly.
func CostMatrix(ctx context.Context, model core.CostModel, specs []*core.WorkloadSpec, allocs []vm.Shares) ([][]float64, error) {
	out := make([][]float64, len(specs))
	for i, w := range specs {
		row := make([]float64, len(allocs))
		for j, sh := range allocs {
			c, err := model.Cost(ctx, w, sh)
			if err != nil {
				return nil, err
			}
			row[j] = c
		}
		out[i] = row
	}
	return out, nil
}

// MatrixWorkloads exposes the paper's two benchmark workloads (W1 = n4
// copies of Q4, W2 = n13 copies of Q13) for
// the what-if matrix benchmark and tests.
func (e *Env) MatrixWorkloads(n4, n13 int) ([]*core.WorkloadSpec, error) {
	return e.specs(n4, n13)
}
