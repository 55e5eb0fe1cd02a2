package experiments

import "dbvirt/internal/workload"

// Experiment is one entry of the paper record: a named figure or
// ablation with its fixed arguments, and its text rendering.
type Experiment struct {
	Name string
	// Run runs the experiment and returns its rows: simulated seconds,
	// counts and ratios only, so equal environments give equal rows.
	Run func(*workload.Env) (any, error)
	// Text renders rows that Run returned.
	Text func(rows any) string
}

func experiment[R any](name string, run func(*workload.Env) (R, error), text func(R) string) Experiment {
	return Experiment{
		Name: name,
		Run:  func(e *workload.Env) (any, error) { return run(e) },
		Text: func(rows any) string { return text(rows.(R)) },
	}
}

// paperShares are the CPU, memory and I/O shares the figures sweep.
var paperShares = []float64{0.25, 0.5, 0.75}

// Paper is the paper's evaluation as this repository reproduces it:
// every figure and ablation, in print order. cmd/experiments prints it,
// and testdata/paper.json pins it at quick scale.
var Paper = []Experiment{
	experiment("figure3", func(e *workload.Env) ([]Fig3Row, error) { return Figure3(e, paperShares, paperShares, 0.5) }, FormatFigure3),
	experiment("figure4", func(e *workload.Env) (*Fig4Result, error) { return Figure4(e, paperShares) }, FormatFigure4),
	experiment("figure5", Figure5, FormatFigure5),
	experiment("figure_write", func(e *workload.Env) (*FigWriteResult, error) { return FigureWrite(e, paperShares) }, FormatFigureWrite),
	experiment("figure_placement", func(e *workload.Env) ([]FigPRow, error) {
		sizes := []int{60, 200}
		if e.Scale == workload.ExperimentScale() {
			sizes = []int{100, 300, 1000}
		}
		return FigurePlacement(e, sizes)
	}, FormatFigurePlacement),
	experiment("figure_control", func(e *workload.Env) ([]FigCRow, error) { return FigureControl(e, 6, 10) }, FormatFigureControl),
	experiment("search", func(e *workload.Env) ([]SearchRow, error) { return AblationSearch(e, 3, 0.25) }, FormatSearch),
	experiment("grid", AblationCalibrationGrid, FormatGrid),
	experiment("overlap", func(e *workload.Env) ([]OverlapRow, error) { return AblationOverlap(e, []float64{0, 0.5, 0.75, 1}) }, FormatOverlap),
	experiment("dynamic", DynamicReconfig, FormatDynamic),
	experiment("slo", SLOWeighted, FormatSLO),
	experiment("memory", MemoryDimension, FormatMemoryDimension),
}
