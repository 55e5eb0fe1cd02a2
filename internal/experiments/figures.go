package experiments

import (
	"context"
	"fmt"
	"strings"

	"dbvirt/internal/core"
	"dbvirt/internal/optimizer"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// Fig3Row is one point of Figure 3: the calibrated cpu_tuple_cost at one
// (CPU share, memory share) pair.
type Fig3Row struct {
	CPUShare, MemShare float64
	CPUTupleCost       float64
	Params             optimizer.Params
}

// Figure3 calibrates the optimizer over the cross product of CPU and
// memory shares (I/O fixed) and reports cpu_tuple_cost at each point — the
// paper's Figure 3.
func Figure3(e *workload.Env, cpuShares, memShares []float64, ioShare float64) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, mem := range memShares {
		for _, cpu := range cpuShares {
			p, err := e.Calibrator().Calibrate(context.Background(), vm.Shares{CPU: cpu, Memory: mem, IO: ioShare})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig3Row{
				CPUShare: cpu, MemShare: mem,
				CPUTupleCost: p.CPUTupleCost,
				Params:       p,
			})
		}
	}
	return rows, nil
}

// FormatFigure3 renders the rows as the paper's series (one line per
// memory share, one column per CPU share).
func FormatFigure3(rows []Fig3Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 3: calibrated cpu_tuple_cost vs resource allocation\n")
	byMem := map[float64][]Fig3Row{}
	var mems []float64
	for _, r := range rows {
		if _, ok := byMem[r.MemShare]; !ok {
			mems = append(mems, r.MemShare)
		}
		byMem[r.MemShare] = append(byMem[r.MemShare], r)
	}
	for _, mem := range mems {
		fmt.Fprintf(&sb, "  mem=%2.0f%%:", mem*100)
		for _, r := range byMem[mem] {
			fmt.Fprintf(&sb, "  cpu=%2.0f%% -> %.5f", r.CPUShare*100, r.CPUTupleCost)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig4Row is one point of Figure 4: estimated and actual execution time of
// Q4 and Q13 at one CPU share (memory and I/O fixed at 50%).
type Fig4Row struct {
	CPUShare float64
	EstQ4    float64
	ActQ4    float64
	EstQ13   float64
	ActQ13   float64
}

// Fig4Result holds the rows plus the 50%-normalized series as plotted in
// the paper.
type Fig4Result struct {
	Rows []Fig4Row
	// Norm* are the same series divided by their value at CPU=50%.
	NormEstQ4, NormActQ4, NormEstQ13, NormActQ13 []float64
}

// Figure4 reproduces the paper's sensitivity experiment: estimate and
// measure Q4 and Q13 at each CPU share with memory fixed at 50%.
func Figure4(e *workload.Env, cpuShares []float64) (*Fig4Result, error) {
	q4db, err := e.DB("w-q4")
	if err != nil {
		return nil, err
	}
	q13db, err := e.DB("w-q13")
	if err != nil {
		return nil, err
	}
	q4 := []*core.WorkloadSpec{{Name: "Q4", Statements: []string{workload.Query("Q4")}, DB: q4db}}
	q13 := []*core.WorkloadSpec{{Name: "Q13", Statements: []string{workload.Query("Q13")}, DB: q13db}}
	res := &Fig4Result{}
	var at50 *Fig4Row
	for _, cpu := range cpuShares {
		shares := vm.Shares{CPU: cpu, Memory: 0.5, IO: 0.5}
		row := Fig4Row{CPUShare: cpu}
		if row.EstQ4, err = EstimateQuery(e, q4db, workload.Query("Q4"), shares); err != nil {
			return nil, err
		}
		act, err := core.MeasureAllocation(e.Machine, e.Engine, q4, core.Allocation{shares})
		if err != nil {
			return nil, err
		}
		row.ActQ4 = act[0]
		if row.EstQ13, err = EstimateQuery(e, q13db, workload.Query("Q13"), shares); err != nil {
			return nil, err
		}
		if act, err = core.MeasureAllocation(e.Machine, e.Engine, q13, core.Allocation{shares}); err != nil {
			return nil, err
		}
		row.ActQ13 = act[0]
		res.Rows = append(res.Rows, row)
		if cpu == 0.5 {
			at50 = &res.Rows[len(res.Rows)-1]
		}
	}
	if at50 == nil && len(res.Rows) > 0 {
		at50 = &res.Rows[len(res.Rows)/2]
	}
	for _, r := range res.Rows {
		res.NormEstQ4 = append(res.NormEstQ4, r.EstQ4/at50.EstQ4)
		res.NormActQ4 = append(res.NormActQ4, r.ActQ4/at50.ActQ4)
		res.NormEstQ13 = append(res.NormEstQ13, r.EstQ13/at50.EstQ13)
		res.NormActQ13 = append(res.NormActQ13, r.ActQ13/at50.ActQ13)
	}
	return res, nil
}

// FormatFigure4 renders the normalized series like the paper's bars.
func FormatFigure4(res *Fig4Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 4: sensitivity to varying CPU share (normalized to CPU=50%)\n")
	sb.WriteString("  cpu%   est-Q4  act-Q4  est-Q13 act-Q13   (raw est/act seconds)\n")
	for i, r := range res.Rows {
		fmt.Fprintf(&sb, "  %3.0f%%   %6.3f  %6.3f  %6.3f  %6.3f   (Q4 %.3f/%.3f  Q13 %.3f/%.3f)\n",
			r.CPUShare*100,
			res.NormEstQ4[i], res.NormActQ4[i], res.NormEstQ13[i], res.NormActQ13[i],
			r.EstQ4, r.ActQ4, r.EstQ13, r.ActQ13)
	}
	return sb.String()
}

// Fig5Result holds the Figure 5 reproduction: measured workload times
// under the default equal CPU split and under the allocation chosen by the
// what-if search.
type Fig5Result struct {
	ChosenAllocation core.Allocation
	PredictedTotal   float64
	// Measured seconds per workload under each allocation.
	DefaultW1, DefaultW2 float64
	ChosenW1, ChosenW2   float64
}

// Improvement returns W2's relative improvement and W1's relative
// degradation under the chosen allocation.
func (r *Fig5Result) Improvement() (w2Gain, w1Loss float64) {
	w2Gain = 1 - r.ChosenW2/r.DefaultW2
	w1Loss = r.ChosenW1/r.DefaultW1 - 1
	return
}

// Figure5 reproduces the paper's workload experiment: W1 = 3 copies of
// Q4, W2 = 9 copies of Q13. The what-if model drives a CPU-share search
// (memory and I/O fixed 50/50); the chosen allocation and the default
// equal split are then both actually executed.
func Figure5(e *workload.Env) (*Fig5Result, error) {
	specs, err := MatrixWorkloads(e, 3, 9)
	if err != nil {
		return nil, err
	}
	model := &core.WhatIfModel{Cal: e.Calibrator()}
	problem := &core.Problem{
		Workloads:   specs,
		Resources:   []vm.Resource{vm.CPU},
		Step:        0.25,
		Parallelism: e.Parallelism,
	}
	sol, err := core.SolveDP(context.Background(), problem, model)
	if err != nil {
		return nil, err
	}

	def, err := core.MeasureAllocation(e.Machine, e.Engine, specs, core.EqualAllocation(2))
	if err != nil {
		return nil, err
	}
	chosen, err := core.MeasureAllocation(e.Machine, e.Engine, specs, sol.Allocation)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{
		ChosenAllocation: sol.Allocation,
		PredictedTotal:   sol.PredictedTotal,
		DefaultW1:        def[0], DefaultW2: def[1],
		ChosenW1: chosen[0], ChosenW2: chosen[1],
	}, nil
}

// FormatFigure5 renders the result like the paper's bar chart.
func FormatFigure5(r *Fig5Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: effect on total execution time (W1 = 3xQ4, W2 = 9xQ13)\n")
	fmt.Fprintf(&sb, "  chosen allocation: %v (predicted total %.3fs)\n", r.ChosenAllocation, r.PredictedTotal)
	fmt.Fprintf(&sb, "  W1 (Q4):  default %.3fs -> chosen %.3fs\n", r.DefaultW1, r.ChosenW1)
	fmt.Fprintf(&sb, "  W2 (Q13): default %.3fs -> chosen %.3fs\n", r.DefaultW2, r.ChosenW2)
	gain, loss := r.Improvement()
	fmt.Fprintf(&sb, "  W2 improves %.0f%%; W1 degrades %.0f%%\n", gain*100, loss*100)
	return sb.String()
}

// FigWriteRow is one point of the write-sensitivity figure: estimated and
// actual time of a commit-bound insert workload, the actual time of an
// update workload, and the actual time of the read-bound Q4, all at one
// I/O share (CPU and memory fixed at 50%).
type FigWriteRow struct {
	IOShare   float64
	EstWrite  float64
	ActWrite  float64
	ActUpdate float64
	ActRead   float64
	// LogBytes/Flushes are the insert workload's measured log footprint —
	// the inputs of EstWrite. They are a property of the workload, not of
	// the allocation, so they are identical on every row.
	LogBytes int64
	Flushes  int
}

// FigWriteResult holds the rows plus the IO=50%-normalized series.
type FigWriteResult struct {
	Rows []FigWriteRow
	// Norm* are the same series divided by their value at IO=50%.
	NormEstWrite, NormActWrite, NormActUpdate, NormActRead []float64
}

// FigureWrite contrasts a write-bound tenant with a read-bound one across
// I/O shares (CPU and memory fixed at 50%): the insert and update
// workloads pay a WAL group fsync per autocommit statement, so their time
// tracks the calibrated TimePerLogFlush as the I/O share shrinks, while
// the read-bound Q4's sensitivity comes from page fetches alone. EstWrite
// is the what-if write estimate EstimateWriteSeconds(LogBytes, Flushes)
// under the calibrated P(shares).
func FigureWrite(e *workload.Env, ioShares []float64) (*FigWriteResult, error) {
	const baseRows = 512
	const nWrites = 96
	inserts := workload.InsertHeavy("insert-heavy", baseRows, nWrites)
	updates := workload.UpdateHeavy("update-heavy", baseRows, nWrites, e.Seed)
	q4db, err := e.DB("w-q4")
	if err != nil {
		return nil, err
	}
	q4 := []*core.WorkloadSpec{{Name: "Q4", Statements: []string{workload.Query("Q4")}, DB: q4db}}
	res := &FigWriteResult{}
	var at50 *FigWriteRow
	for _, io := range ioShares {
		shares := vm.Shares{CPU: 0.5, Memory: 0.5, IO: io}
		row := FigWriteRow{IOShare: io}
		if row.ActWrite, row.LogBytes, row.Flushes, err = measureWrite(e, inserts, baseRows, shares); err != nil {
			return nil, err
		}
		if row.ActUpdate, _, _, err = measureWrite(e, updates, baseRows, shares); err != nil {
			return nil, err
		}
		p, err := e.Calibrator().Calibrate(context.Background(), shares)
		if err != nil {
			return nil, err
		}
		row.EstWrite = p.EstimateWriteSeconds(row.LogBytes, row.Flushes)
		act, err := core.MeasureAllocation(e.Machine, e.Engine, q4, core.Allocation{shares})
		if err != nil {
			return nil, err
		}
		row.ActRead = act[0]
		res.Rows = append(res.Rows, row)
		if io == 0.5 {
			at50 = &res.Rows[len(res.Rows)-1]
		}
	}
	if at50 == nil && len(res.Rows) > 0 {
		at50 = &res.Rows[len(res.Rows)/2]
	}
	for _, r := range res.Rows {
		res.NormEstWrite = append(res.NormEstWrite, r.EstWrite/at50.EstWrite)
		res.NormActWrite = append(res.NormActWrite, r.ActWrite/at50.ActWrite)
		res.NormActUpdate = append(res.NormActUpdate, r.ActUpdate/at50.ActUpdate)
		res.NormActRead = append(res.NormActRead, r.ActRead/at50.ActRead)
	}
	return res, nil
}

// FormatFigureWrite renders the normalized series.
func FormatFigureWrite(res *FigWriteResult) string {
	var sb strings.Builder
	sb.WriteString("Figure W: sensitivity to varying I/O share (normalized to IO=50%)\n")
	sb.WriteString("  io%   est-ins  act-ins  act-upd  act-Q4   (raw seconds)\n")
	for i, r := range res.Rows {
		fmt.Fprintf(&sb, "  %3.0f%%  %7.3f  %7.3f  %7.3f  %6.3f   (ins %.4f/%.4f  upd %.4f  Q4 %.4f)\n",
			r.IOShare*100,
			res.NormEstWrite[i], res.NormActWrite[i], res.NormActUpdate[i], res.NormActRead[i],
			r.EstWrite, r.ActWrite, r.ActUpdate, r.ActRead)
	}
	if len(res.Rows) > 0 {
		fmt.Fprintf(&sb, "  write workload: %d stmts, %d log bytes, %d flushes\n",
			res.Rows[0].Flushes, res.Rows[0].LogBytes, res.Rows[0].Flushes)
	}
	return sb.String()
}
