package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"dbvirt/internal/calibration"
	"dbvirt/internal/core"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// SearchRow compares one search algorithm on one problem instance.
type SearchRow struct {
	Algorithm      string
	PredictedTotal float64
	MeasuredTotal  float64
	Evaluations    int
}

// AblationSearch compares the search algorithms (plus the equal-shares
// baseline) on an N-workload problem with heterogeneous resource
// profiles, validating each algorithm's chosen allocation by actual
// execution.
func AblationSearch(e *workload.Env, n int, step float64) ([]SearchRow, error) {
	if n < 2 || n > 4 {
		return nil, fmt.Errorf("experiments: search ablation supports 2..4 workloads, got %d", n)
	}
	// Heterogeneous mix: CPU-bound, I/O-bound, mixed, index-heavy.
	queryNames := []string{"Q13", "Q4", "Q6", "QPOINT"}
	reps := []int{6, 1, 2, 200}
	var specs []*core.WorkloadSpec
	for i := 0; i < n; i++ {
		db, err := e.DB("search-" + queryNames[i])
		if err != nil {
			return nil, err
		}
		specs = append(specs, &core.WorkloadSpec{
			Name:       fmt.Sprintf("W%d-%s", i+1, queryNames[i]),
			Statements: workload.Repeat("w", workload.Query(queryNames[i]), reps[i]).Statements,
			DB:         db,
		})
	}
	model := &core.WhatIfModel{Cal: e.Calibrator()}
	problem := &core.Problem{
		Workloads:   specs,
		Resources:   []vm.Resource{vm.CPU},
		Step:        step,
		Parallelism: e.Parallelism,
	}

	type solver struct {
		name string
		run  func() (*core.Result, error)
	}
	solvers := []solver{
		{"equal", func() (*core.Result, error) {
			return core.EvaluateAllocation(context.Background(), problem, model, core.EqualAllocation(n), "equal")
		}},
		{"greedy", func() (*core.Result, error) { return core.SolveGreedy(context.Background(), problem, model) }},
		{"dp", func() (*core.Result, error) { return core.SolveDP(context.Background(), problem, model) }},
		{"exhaustive", func() (*core.Result, error) { return core.SolveExhaustive(context.Background(), problem, model) }},
	}
	var rows []SearchRow
	for _, s := range solvers {
		res, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.name, err)
		}
		measured, err := core.MeasureAllocation(e.Machine, e.Engine, specs, res.Allocation)
		if err != nil {
			return nil, err
		}
		var total float64
		for _, m := range measured {
			total += m
		}
		rows = append(rows, SearchRow{
			Algorithm:      s.name,
			PredictedTotal: res.PredictedTotal,
			MeasuredTotal:  total,
			Evaluations:    res.Evaluations,
		})
	}
	return rows, nil
}

// FormatSearch renders the search-algorithm comparison.
func FormatSearch(rows []SearchRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: search algorithms (what-if model, CPU dimension)\n")
	sb.WriteString("  algorithm   predicted   measured   cost-model evals\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s  %8.3fs  %8.3fs   %d\n",
			r.Algorithm, r.PredictedTotal, r.MeasuredTotal, r.Evaluations)
	}
	return sb.String()
}

// GridRow reports interpolation error for one grid resolution.
type GridRow struct {
	AxisPoints int     // CPU points calibrated, at one I/O point
	MaxRelErr  float64 // max relative error of cpu_tuple_cost at probes
	MeanRelErr float64
}

// AblationCalibrationGrid quantifies the paper's §7 trade-off: fewer
// calibration experiments (coarser grid) versus parameter accuracy,
// evaluated against direct calibration at off-lattice CPU shares.
func AblationCalibrationGrid(e *workload.Env) ([]GridRow, error) {
	cal := e.Calibrator()
	probeShares := []float64{0.35, 0.5, 0.65}
	axes := [][]float64{
		{0.25, 0.75},
		{0.25, 0.5, 0.75},
		{0.2, 0.4, 0.6, 0.8},
	}
	var rows []GridRow
	for _, axis := range axes {
		g, err := cal.CalibrateGrid(context.Background(), axis, []float64{0.5}, calibration.GridOptions{})
		if err != nil {
			return nil, err
		}
		var maxErr, sumErr float64
		for _, cpu := range probeShares {
			sh := vm.Shares{CPU: cpu, Memory: 0.5, IO: 0.5}
			direct, err := cal.Calibrate(context.Background(), sh)
			if err != nil {
				return nil, err
			}
			interp := g.Interpolate(sh)
			rel := math.Abs(interp.CPUTupleCost-direct.CPUTupleCost) / direct.CPUTupleCost
			sumErr += rel
			if rel > maxErr {
				maxErr = rel
			}
		}
		rows = append(rows, GridRow{
			AxisPoints: len(axis),
			MaxRelErr:  maxErr,
			MeanRelErr: sumErr / float64(len(probeShares)),
		})
	}
	return rows, nil
}

// FormatGrid renders the grid ablation.
func FormatGrid(rows []GridRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: calibration grid resolution vs interpolation error (cpu_tuple_cost)\n")
	sb.WriteString("  lattice points   max rel err   mean rel err\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %6d           %6.1f%%       %6.1f%%\n",
			r.AxisPoints, r.MaxRelErr*100, r.MeanRelErr*100)
	}
	return sb.String()
}

// OverlapRow reports Q4's measured CPU sensitivity at one CPU/I-O overlap
// factor.
type OverlapRow struct {
	Overlap       float64
	Q4Sensitivity float64 // act(25%) / act(75%)
}

// AblationOverlap varies the machine's CPU/I-O overlap and measures how
// sensitive the I/O-bound Q4 becomes to the CPU share: with full overlap
// Q4 is flat, with no overlap (fully serial) its CPU component is exposed.
// The database does not depend on the machine, so every overlap runs on
// e's.
func AblationOverlap(e *workload.Env, overlaps []float64) ([]OverlapRow, error) {
	db, err := e.DB("w-q4")
	if err != nil {
		return nil, err
	}
	q4 := []*core.WorkloadSpec{{Name: "Q4", Statements: []string{workload.Query("Q4")}, DB: db}}
	var rows []OverlapRow
	for _, ov := range overlaps {
		machine := e.Machine
		machine.Overlap = ov
		lo, err := core.MeasureAllocation(machine, e.Engine, q4, core.Allocation{{CPU: 0.25, Memory: 0.5, IO: 0.5}})
		if err != nil {
			return nil, err
		}
		hi, err := core.MeasureAllocation(machine, e.Engine, q4, core.Allocation{{CPU: 0.75, Memory: 0.5, IO: 0.5}})
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverlapRow{Overlap: ov, Q4Sensitivity: lo[0] / hi[0]})
	}
	return rows, nil
}

// FormatOverlap renders the overlap ablation.
func FormatOverlap(rows []OverlapRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: CPU/I-O overlap vs Q4's measured CPU sensitivity (act 25% / act 75%)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  overlap %.2f -> sensitivity %.3f\n", r.Overlap, r.Q4Sensitivity)
	}
	return sb.String()
}

// DynamicResult compares a static design against online reconfiguration
// across a workload phase change.
type DynamicResult struct {
	// Phase 1: W1 is I/O-bound (Q4) and W2 CPU-bound (Q13); in phase 2
	// the workloads swap profiles, inverting the optimal CPU split.
	StaticTotal  float64 // static allocation solved for phase 1, used for both
	DynamicTotal float64 // re-solved and re-applied at the phase boundary
	Reconfigured bool    // the re-solve moved the shares
}

// DynamicReconfig reproduces the paper's §7 dynamic scenario: the
// controller re-solves the design problem when the workload changes phase
// and reconfigures the running VMs.
func DynamicReconfig(e *workload.Env) (*DynamicResult, error) {
	q4db, err := e.DB("w-q4")
	if err != nil {
		return nil, err
	}
	q13db, err := e.DB("w-q13")
	if err != nil {
		return nil, err
	}
	w1 := &core.WorkloadSpec{
		Name:       "W1",
		Statements: workload.Repeat("w1", workload.Query("Q4"), 1).Statements,
		DB:         q4db,
	}
	w2Phase1 := &core.WorkloadSpec{
		Name:       "W2",
		Statements: workload.Repeat("w2", workload.Query("Q13"), 6).Statements,
		DB:         q13db,
	}
	// Phase 2: W2's demand flips to the I/O-bound query while W1 keeps
	// running; the static design now starves nobody but wastes W2's CPU
	// grant, while the controller rebalances.
	w2Phase2 := &core.WorkloadSpec{
		Name:       "W2",
		Statements: workload.Repeat("w2", workload.Query("Q4"), 1).Statements,
		DB:         q13db,
	}
	w1Phase2 := &core.WorkloadSpec{
		Name:       "W1",
		Statements: workload.Repeat("w1", workload.Query("Q13"), 6).Statements,
		DB:         q4db,
	}
	model := &core.WhatIfModel{Cal: e.Calibrator()}
	mkProblem := func(a, b *core.WorkloadSpec) *core.Problem {
		return &core.Problem{
			Workloads:   []*core.WorkloadSpec{a, b},
			Resources:   []vm.Resource{vm.CPU},
			Step:        0.25,
			Parallelism: e.Parallelism,
		}
	}

	runPhases := func(dynamic bool) (float64, bool, error) {
		sol1, err := core.SolveDP(context.Background(), mkProblem(w1, w2Phase1), model)
		if err != nil {
			return 0, false, err
		}
		dep, err := core.Deploy(e.Machine, e.Engine, []*core.WorkloadSpec{w1, w2Phase1}, sol1.Allocation)
		if err != nil {
			return 0, false, err
		}
		// Warm both VMs' caches.
		if _, err := dep.MeasureWorkloads(false); err != nil {
			return 0, false, err
		}
		start1 := []vm.Usage{dep.VMs[0].Snapshot(), dep.VMs[1].Snapshot()}
		if _, err := dep.Sessions[0].RunWorkload(w1.Statements); err != nil {
			return 0, false, err
		}
		if _, err := dep.Sessions[1].RunWorkload(w2Phase1.Statements); err != nil {
			return 0, false, err
		}
		phase1 := dep.VMs[0].ElapsedSince(start1[0]) + dep.VMs[1].ElapsedSince(start1[1])

		reconfigured := false
		if dynamic {
			sol2, err := core.SolveDP(context.Background(), mkProblem(w1Phase2, w2Phase2), model)
			if err != nil {
				return 0, false, err
			}
			if err := core.ApplyShares(dep.VMs, sol2.Allocation); err != nil {
				return 0, false, err
			}
			reconfigured = !slices.Equal(sol2.Allocation, sol1.Allocation)
		}
		start2 := []vm.Usage{dep.VMs[0].Snapshot(), dep.VMs[1].Snapshot()}
		if _, err := dep.Sessions[0].RunWorkload(w1Phase2.Statements); err != nil {
			return 0, false, err
		}
		if _, err := dep.Sessions[1].RunWorkload(w2Phase2.Statements); err != nil {
			return 0, false, err
		}
		phase2 := dep.VMs[0].ElapsedSince(start2[0]) + dep.VMs[1].ElapsedSince(start2[1])
		return phase1 + phase2, reconfigured, nil
	}

	staticTotal, _, err := runPhases(false)
	if err != nil {
		return nil, err
	}
	dynamicTotal, reconf, err := runPhases(true)
	if err != nil {
		return nil, err
	}
	return &DynamicResult{StaticTotal: staticTotal, DynamicTotal: dynamicTotal, Reconfigured: reconf}, nil
}

// FormatDynamic renders the dynamic-reconfiguration study.
func FormatDynamic(r *DynamicResult) string {
	var sb strings.Builder
	sb.WriteString("Extension: dynamic reconfiguration across a workload phase change\n")
	fmt.Fprintf(&sb, "  static design:  %.3fs total\n", r.StaticTotal)
	fmt.Fprintf(&sb, "  online control: %.3fs total (reconfigured=%v)\n", r.DynamicTotal, r.Reconfigured)
	if r.StaticTotal > 0 {
		fmt.Fprintf(&sb, "  improvement: %.0f%%\n", (1-r.DynamicTotal/r.StaticTotal)*100)
	}
	return sb.String()
}

// SLOResult compares the unconstrained optimum with an SLO-constrained
// one.
type SLOResult struct {
	Unconstrained core.Allocation
	Constrained   core.Allocation
	// W1CostUnconstrained/Constrained are the predicted costs of the
	// SLO-bearing workload under each design.
	W1CostUnconstrained float64
	W1CostConstrained   float64
	SLOSeconds          float64
}

// SLOWeighted demonstrates the paper's §7 service-level-objective
// extension: attaching a latency target to the I/O-bound workload forces
// the search away from the throughput-optimal design.
func SLOWeighted(e *workload.Env) (*SLOResult, error) {
	specs, err := MatrixWorkloads(e, 3, 9)
	if err != nil {
		return nil, err
	}
	model := &core.WhatIfModel{Cal: e.Calibrator()}
	base := &core.Problem{
		Workloads:   specs,
		Resources:   []vm.Resource{vm.CPU, vm.IO},
		Step:        0.25,
		Parallelism: e.Parallelism,
	}
	unconstrained, err := core.SolveDP(context.Background(), base, model)
	if err != nil {
		return nil, err
	}
	// SLO: W1 must beat 90% of its unconstrained-optimal cost, pressuring
	// the search to give it more I/O than the throughput optimum would.
	slo := unconstrained.PredictedCosts[0] * 0.9
	specs[0].SLOSeconds = slo
	constrained := &core.Problem{
		Workloads:   specs,
		Resources:   []vm.Resource{vm.CPU, vm.IO},
		Step:        0.25,
		Objective:   core.Objective{SLOPenalty: 50},
		Parallelism: e.Parallelism,
	}
	sol, err := core.SolveDP(context.Background(), constrained, model)
	if err != nil {
		return nil, err
	}
	specs[0].SLOSeconds = 0 // restore
	return &SLOResult{
		Unconstrained:       unconstrained.Allocation,
		Constrained:         sol.Allocation,
		W1CostUnconstrained: unconstrained.PredictedCosts[0],
		W1CostConstrained:   sol.PredictedCosts[0],
		SLOSeconds:          slo,
	}, nil
}

// FormatSLO renders the SLO study.
func FormatSLO(r *SLOResult) string {
	var sb strings.Builder
	sb.WriteString("Extension: service-level objectives\n")
	fmt.Fprintf(&sb, "  unconstrained: %v (W1 predicted %.3fs)\n", r.Unconstrained, r.W1CostUnconstrained)
	fmt.Fprintf(&sb, "  SLO %.3fs:     %v (W1 predicted %.3fs)\n", r.SLOSeconds, r.Constrained, r.W1CostConstrained)
	return sb.String()
}

// MemoryDimensionResult compares CPU-only optimization against joint
// CPU+memory optimization.
type MemoryDimensionResult struct {
	CPUOnly         core.Allocation
	Joint           core.Allocation
	CPUOnlyMeasured float64
	JointMeasured   float64
}

// MemoryDimension optimizes the same two workloads over CPU only and over
// CPU+memory jointly. The experiment runs on a machine whose memory is
// sized so that the Q13 workload's hot orders relation does NOT fit its
// buffer pool at the equal memory split but does at a 75% share — the
// regime where the memory dimension matters.
func MemoryDimension(e *workload.Env) (*MemoryDimensionResult, error) {
	q13db, err := e.DB("w-q13")
	if err != nil {
		return nil, err
	}
	orders, err := q13db.Catalog.Table("orders")
	if err != nil {
		return nil, err
	}
	ordersPages := float64(q13db.Disk.NumPages(orders.Heap.FileID()))

	// Size machine memory so the pool holds 0.9x orders at a 50% memory
	// share (sequential flooding, ~0% hits) but 1.35x at 75% (fully
	// cached): pool(share) = share * BufferFrac * MemBytes / pageSize.
	machine := e.Machine
	machine.MemBytes = int64(ordersPages * 8192 * 1.8 / e.Engine.BufferFrac)
	env := workload.NewEnv(e.Scale, machine)
	env.Seed = e.Seed

	// The workloads run on e's already-built databases.
	specs, err := MatrixWorkloads(e, 2, 6)
	if err != nil {
		return nil, err
	}
	model := &core.WhatIfModel{Cal: env.Calibrator()}
	cpuOnly, err := core.SolveDP(context.Background(), &core.Problem{
		Workloads:   specs,
		Resources:   []vm.Resource{vm.CPU},
		Step:        0.25,
		Parallelism: env.Parallelism,
	}, model)
	if err != nil {
		return nil, err
	}
	joint, err := core.SolveDP(context.Background(), &core.Problem{
		Workloads:   specs,
		Resources:   []vm.Resource{vm.CPU, vm.Memory},
		Step:        0.25,
		Parallelism: env.Parallelism,
	}, model)
	if err != nil {
		return nil, err
	}
	mc, err := core.MeasureAllocation(env.Machine, env.Engine, specs, cpuOnly.Allocation)
	if err != nil {
		return nil, err
	}
	mj, err := core.MeasureAllocation(env.Machine, env.Engine, specs, joint.Allocation)
	if err != nil {
		return nil, err
	}
	return &MemoryDimensionResult{
		CPUOnly:         cpuOnly.Allocation,
		Joint:           joint.Allocation,
		CPUOnlyMeasured: mc[0] + mc[1],
		JointMeasured:   mj[0] + mj[1],
	}, nil
}

// FormatMemoryDimension renders the memory-dimension study.
func FormatMemoryDimension(r *MemoryDimensionResult) string {
	var sb strings.Builder
	sb.WriteString("Ablation: CPU-only vs joint CPU+memory design\n")
	fmt.Fprintf(&sb, "  cpu-only: %v -> measured %.3fs\n", r.CPUOnly, r.CPUOnlyMeasured)
	fmt.Fprintf(&sb, "  joint:    %v -> measured %.3fs\n", r.Joint, r.JointMeasured)
	return sb.String()
}
