package main

// The registry is the single declaration of what the benchmark measures:
// the workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics. BENCHMARK.json at the repository root repeats it
// for the driver; bench_test.go fails when the two disagree.

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"olap", "One session runs 8 analytic SELECTs round-robin on a TPC-H-like database whose lineitem exceeds the buffer pool: the executor does over 99% of the work, and sql, plan and optimizer are idle."},
	{"oltp", "One session, WAL on: 20-op cycles of point and range SELECTs, INSERT, UPDATE and DELETE on a table that fits the pool, so parse, bind, optimize, MVCC writes and log commits set the pace."},
	{"tuner_service", "Two closed-loop clients drive vdtuned over loopback HTTP with a what-if, solve and grid mix, half repeated bodies and half fresh ones, so memo hits and prepared re-costs are both measured."},
	{"fleet_control", "One operator loop on vdtuned: placement events on about 1000 tenants, a full placement, telemetry what-ifs and autotune ticks; placement and autotune work here and nowhere else."},
}

// End-to-end metrics: every one is reported for every workload. The four
// that are timed carry the widest bound the driver allows: on the reference
// sandbox the speed of a CPU cycle itself swings by up to a third between
// minutes, and across ten runs the quartiles of even the best-lap
// estimators lie up to 13% apart (README.md, "Bounds"). The two that are
// counted hold 15% (two clients interleave differently from run to run;
// with one client the count repeats to 0.2%) and 5%.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB/op", "lower", 0.15},
	{"heap_live_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s_per_kop", "s/kop", "lower", 0.25},
}

// Statement kinds timed per workload, and the HTTP routes timed on the
// two service workloads.
var (
	oltpKinds  = []string{"select_point", "select_range", "insert", "update", "delete"}
	olapKinds  = []string{"Q1", "Q3", "Q4", "Q6", "Q13", "Q13FULL", "scan", "zone"}
	httpRoutes = []string{"whatif", "solve", "grid", "placement", "placement_events", "autotune_trigger"}
	solveAlgos = []string{"dp", "greedy", "exhaustive"}
)

// perLayer lists the per-layer metrics, layer = module name. A metric of
// a layer that a workload leaves idle reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"sql.self_us_per_op", "us/op", "lower", 0},
		{"sql.calls_per_op", "1/op", "lower", 0},
		{"plan.bind_self_us_per_op", "us/op", "lower", 0},
		{"optimizer.self_us_per_op", "us/op", "lower", 0},
		{"optimizer.optimize_calls_per_op", "1/op", "lower", 0},
		{"optimizer.recost_fast_ratio", "ratio", "higher", 0},
		{"optimizer.whatif_self_us_per_call", "us", "lower", 0},
		{"executor.self_us_per_op", "us/op", "lower", 0},
		{"executor.rows_per_busy_s", "row/s", "higher", 0},
		{"executor.pages_skipped_ratio", "ratio", "higher", 0},
		{"executor.block_cache_hit_ratio", "ratio", "higher", 0},
		{"buffer.hit_ratio", "ratio", "higher", 0},
		{"buffer.evictions_per_op", "1/op", "lower", 0},
		{"buffer.writebacks_per_op", "1/op", "lower", 0},
		{"vm.sim_s_per_op", "s/op", "lower", 0},
		{"vm.seq_reads_per_op", "1/op", "lower", 0},
		{"vm.rand_reads_per_op", "1/op", "lower", 0},
		{"vm.writes_per_op", "1/op", "lower", 0},
		{"vm.log_flushes_per_op", "1/op", "lower", 0},
		{"engine.dml_self_us_per_op", "us/op", "lower", 0},
	}
	for _, k := range oltpKinds {
		m = append(m, metricDef{"engine.stmt." + k + ".p50_us", "us", "lower", 0})
	}
	for _, k := range olapKinds {
		m = append(m, metricDef{"engine.stmt." + k + ".p50_us", "us", "lower", 0})
	}
	m = append(m,
		metricDef{"engine.checkpoint_ms_p50", "ms", "lower", 0},
		metricDef{"engine.checkpoint_stall_ms_max", "ms", "lower", 0},
		metricDef{"engine.recovery_ms", "ms", "lower", 0},
		metricDef{"engine.txn_aborts", "count", "lower", 0},
		metricDef{"wal.device_self_us_per_op", "us/op", "lower", 0},
		metricDef{"wal.bytes_per_commit", "B", "lower", 0},
		metricDef{"wal.syncs_per_commit", "ratio", "lower", 0},
		metricDef{"wal.write_amp", "ratio", "lower", 0},
		metricDef{"wal.fsync_coalesced_ratio", "ratio", "higher", 0},
		metricDef{"calibration.grid_s", "s", "lower", 0},
		metricDef{"calibration.points_per_s", "1/s", "higher", 0},
		metricDef{"calibration.measurements", "count", "lower", 0},
		metricDef{"core.cost_calls_per_op", "1/op", "lower", 0},
		metricDef{"core.cost_self_us_per_call", "us", "lower", 0},
		metricDef{"core.shared_hit_ratio", "ratio", "higher", 0},
		metricDef{"core.prepared_hit_ratio", "ratio", "higher", 0},
		metricDef{"core.shared_entries", "count", "lower", 0},
	)
	for _, a := range solveAlgos {
		m = append(m, metricDef{"core.solve_ms_p50." + a, "ms", "lower", 0})
	}
	m = append(m,
		metricDef{"server.self_us_per_op", "us/op", "lower", 0},
		metricDef{"server.net_overhead_us", "us", "lower", 0},
		metricDef{"server.coalesce_hit_ratio", "ratio", "higher", 0},
		metricDef{"server.rejected_frac", "ratio", "lower", 0},
	)
	for _, r := range httpRoutes {
		m = append(m,
			metricDef{"server.route." + r + ".p50_ms", "ms", "lower", 0},
			metricDef{"server.route." + r + ".p99_ms", "ms", "lower", 0})
	}
	m = append(m,
		metricDef{"server.job_queue_wait_ms_p50", "ms", "lower", 0},
		metricDef{"placement.machine_memo_hit_ratio", "ratio", "higher", 0},
		metricDef{"placement.dirty_machines_per_event", "1/op", "lower", 0},
		metricDef{"placement.machines_reused_ratio", "ratio", "higher", 0},
		metricDef{"placement.classes", "count", "lower", 0},
		metricDef{"autotune.tick_ms_p50", "ms", "lower", 0},
		metricDef{"autotune.resolves_per_tick", "ratio", "lower", 0},
		metricDef{"autotune.actuations", "count", "lower", 0},
		metricDef{"trace_overhead_frac", "ratio", "lower", 0},
		metricDef{"p99_ms", "ms", "lower", 0},
	)
	return m
}

// measurement is one reported value; the unit comes from the registry.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run, keyed by declared name. A
// declared metric that was never set reads 0: the layer was idle.
type metricSet map[string]float64

// report renders the declared metrics in registry order.
func (m metricSet) report(defs []metricDef) map[string]measurement {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		out[d.Name] = measurement{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
