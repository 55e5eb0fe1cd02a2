package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dbvirt/internal/buffer"
	"dbvirt/internal/obs"
	"dbvirt/internal/vm"
)

// op is one generated input: what the program is sent and what the
// harness expects back. The program sees only sql, or method, path and
// body.
type op struct {
	kind uint8 // index into the workload's kinds()

	sql  string // engine workloads
	want int64  // rows the statement must produce or affect; tenants a placement response must report

	method, path, body string          // HTTP workloads
	sum                uint64          // FNV-1a the response payload must have; 0 when only the reference server knows
	sample             bool            // fresh op re-checked against the reference server after the run
	specKeys           map[string]bool // solve ops: shared-memo keys of the job's workloads
}

// runner drives one of the four benchmark workloads. Every method runs on
// the harness goroutine except do, which runs on its client's.
type runner interface {
	// setup does everything a user waits for before the first op: build
	// and load databases, calibrate, prewarm, warm-up ops.
	setup() error
	kinds() []string
	// lap generates the ops of lap i, one list per client. It is called
	// with the clock stopped, so generation is never timed.
	lap(i int) [][]op
	// do sends one op and checks the reply. It returns the latency the
	// client saw; an error marks the op failed or incorrect. ot is nil on
	// untraced laps.
	do(client int, o *op, ot *opTrace) (time.Duration, error)
	// endLap is work between laps that the client waits for (oltp's
	// CHECKPOINT); its duration counts as wall time, not as an op.
	endLap(i int) (time.Duration, error)
	// finish runs the end-of-run correctness gates; on a traced run it
	// also makes the replay measurements that need the final state.
	finish(traced bool) error
	// engineState returns the session's cumulative buffer-pool and VM
	// counters and the machine's CPU/IO overlap; zeros without a session.
	engineState() (buffer.Stats, vm.Usage, float64)
	// layerMetrics adds the per-layer values only this workload can know.
	layerMetrics(m metricSet, tr *tracer)
	close()
}

// sizing scales a run. The benchmark runs at scale 1 with three set-ups;
// the smoke test runs a few percent of every lap once.
type sizing struct {
	setups int     // set-ups per run; setup_s is their median
	scale  float64 // share of the frozen lap length and fleet size
}

var benchSizing = sizing{setups: 3, scale: 1}

// fixedLaps is the number of laps every run completes whatever its
// duration. alloc_kb_per_op, heap_live_mb and the counter-derived
// per-layer metrics are taken over exactly these laps, so they compare
// equal op counts between two commits however fast each one is.
const fixedLaps = 8

// scaled applies the run's scale to a frozen count, keeping at least floor.
func (s sizing) scaled(n, floor int) int {
	return max(floor, int(math.Round(float64(n)*s.scale)))
}

// newVM creates a VM with the given shares on a machine of its own.
func newVM(cfg vm.MachineConfig, name string, shares vm.Shares) (*vm.VM, error) {
	m, err := vm.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return m.NewVM(name, shares)
}

// result is what one run of one workload reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Samples   int                    `json:"latency_samples"`
	Laps      int                    `json:"laps"`
	Metrics   map[string]measurement `json:"metrics"`
	Errors    []string               `json:"errors,omitempty"`
	// Attributed is, on a traced run, the share of the traced ops' time
	// that the per-layer self times account for.
	Attributed float64 `json:"attributed,omitempty"`
	TraceFile  string  `json:"trace_file,omitempty"`

	values metricSet
}

// collector gathers the ops of one kind of lap (traced or untraced).
type collector struct {
	mu        sync.Mutex
	lat       []float64 // ms, correct ops only
	kind      []uint8
	attempted int64
	failed    int64
	errs      []string
	wall      time.Duration
}

func (c *collector) merge(lat []float64, kind []uint8, attempted int64, errs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lat = append(c.lat, lat...)
	c.kind = append(c.kind, kind...)
	c.attempted += attempted
	c.failed += int64(len(errs))
	for _, e := range errs {
		if len(c.errs) < 5 {
			c.errs = append(c.errs, e)
		}
	}
}

// runLap runs one lap's ops, every client in its own closed loop, and
// returns the lap's wall time.
func runLap(w runner, kinds []string, ops [][]op, tr *tracer, col *collector, http bool) time.Duration {
	client := func(c int) {
		lat := make([]float64, 0, len(ops[c]))
		kind := make([]uint8, 0, len(ops[c]))
		var errs []string
		for i := range ops[c] {
			o := &ops[c][i]
			var ot *opTrace
			if tr != nil {
				ot = tr.begin(kinds[o.kind], c, http)
			}
			d, err := w.do(c, o, ot)
			if ot != nil {
				tr.end(ot)
			}
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s op %d of client %d: %v", kinds[o.kind], i, c, err))
				continue
			}
			lat = append(lat, float64(d)/1e6)
			kind = append(kind, o.kind)
		}
		col.merge(lat, kind, int64(len(ops[c])), errs)
	}
	if tr != nil {
		tr.on.Store(true)
		defer tr.on.Store(false)
	}
	start := time.Now()
	if len(ops) == 1 {
		client(0)
	} else {
		var wg sync.WaitGroup
		for c := range ops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(c)
			}()
		}
		wg.Wait()
	}
	return time.Since(start)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterDelta accumulates obs counter movement over chosen intervals.
type counterDelta map[string]int64

func (d counterDelta) add(before, after map[string]int64) {
	for k, v := range after {
		d[k] += v - before[k]
	}
}

func (d counterDelta) f(name string) float64 { return float64(d[name]) }

// lapStat is what one lap measured: throughput, CPU per 1000 ops, and the
// lap's own median and 95th-percentile latency.
type lapStat struct {
	opsPerS, cpuPerKop, p50, p95 float64
}

// best returns the best value a field takes over the laps: the highest
// throughput, the lowest cost or latency. Co-tenants of the sandbox only
// ever slow a lap down — CPU time per op itself swings by a third between
// minutes — so the best lap is the one that measured the program.
func best(laps []lapStat, field func(lapStat) float64, higher bool) float64 {
	var b float64
	for i, l := range laps {
		if v := field(l); i == 0 || (higher && v > b) || (!higher && v < b) {
			b = v
		}
	}
	return b
}

// measured is what the laps of one run produced.
type measured struct {
	laps       int
	untr, trc  collector // ops of the untraced and of the traced laps
	untrLaps   []lapStat
	trcLaps    []lapStat
	background []float64 // ms of endLap work, per lap

	// Taken over the fixed laps only: allocation over all of them, the
	// rest over the untraced ones.
	fixedAttempted int64
	allocBytes     uint64
	heapLive       uint64
	fixedOps       int64
	fixed          counterDelta
	fixedPool      buffer.Stats
	fixedVM        vm.Usage

	total counterDelta // over the whole run
}

// measure runs laps for at least seconds of lap time and at least
// fixedLaps laps. On a traced run laps alternate untraced, traced, traced,
// untraced, so that drift over the run (a growing memo, a growing table)
// weighs on both kinds alike.
func measure(w runner, tr *tracer, http bool, seconds float64) *measured {
	ms := &measured{fixed: counterDelta{}, total: counterDelta{}}
	kinds := w.kinds()
	var mem runtime.MemStats
	runtime.GC()
	totalBefore := obs.Global.CounterValues()
	for {
		ops := w.lap(ms.laps)
		lapTraced := tr != nil && (ms.laps%4 == 1 || ms.laps%4 == 2)
		col, lapTr, stats := &ms.untr, (*tracer)(nil), &ms.untrLaps
		if lapTraced {
			col, lapTr, stats = &ms.trc, tr, &ms.trcLaps
		}
		inFixed := ms.laps < fixedLaps
		var cBefore map[string]int64
		var poolBefore buffer.Stats
		var vmBefore vm.Usage
		var allocBefore uint64
		if inFixed {
			cBefore = obs.Global.CounterValues()
			poolBefore, vmBefore, _ = w.engineState()
			runtime.ReadMemStats(&mem)
			allocBefore = mem.TotalAlloc
		}
		cpuBefore := cpuSeconds()
		before, latBefore := col.attempted, len(col.lat)
		dur := runLap(w, kinds, ops, lapTr, col, http)
		cpu := cpuSeconds() - cpuBefore
		if inFixed {
			runtime.ReadMemStats(&mem)
			ms.allocBytes += mem.TotalAlloc - allocBefore
			ms.fixedAttempted += col.attempted - before
			if !lapTraced {
				ms.fixed.add(cBefore, obs.Global.CounterValues())
				pool, usage, _ := w.engineState()
				ms.fixedPool.Hits += pool.Hits - poolBefore.Hits
				ms.fixedPool.Misses += pool.Misses - poolBefore.Misses
				ms.fixedPool.Evictions += pool.Evictions - poolBefore.Evictions
				ms.fixedPool.WriteBacks += pool.WriteBacks - poolBefore.WriteBacks
				ms.fixedVM = ms.fixedVM.Add(usage.Sub(vmBefore))
				ms.fixedOps += col.attempted - before
			}
		}
		bg, err := w.endLap(ms.laps)
		if err != nil {
			col.merge(nil, nil, 0, []string{fmt.Sprintf("after lap %d: %v", ms.laps, err)})
		}
		ms.background = append(ms.background, float64(bg)/1e6)
		col.wall += dur + bg

		lat := append([]float64(nil), col.lat[latBefore:]...)
		sort.Float64s(lat)
		n := float64(len(lat))
		*stats = append(*stats, lapStat{
			opsPerS:   ratio(n, (dur + bg).Seconds()),
			cpuPerKop: ratio(cpu, n) * 1000,
			p50:       quantile(lat, 0.50),
			p95:       quantile(lat, 0.95),
		})
		ms.laps++
		if ms.laps == fixedLaps {
			// Retained memory at a fixed op count, with the whole program
			// state still referenced by w.
			runtime.GC()
			runtime.ReadMemStats(&mem)
			ms.heapLive = mem.HeapAlloc
		}
		if ms.laps >= fixedLaps && (ms.untr.wall+ms.trc.wall).Seconds() >= seconds {
			break
		}
	}
	ms.total.add(totalBefore, obs.Global.CounterValues())
	return ms
}

// runWorkload sets the workload up, measures it, checks every output, and
// reports either the end-to-end metrics (untraced: three set-ups) or the
// per-layer metrics (traced: one set-up).
func runWorkload(name string, seed int64, seconds float64, traced bool, sz sizing) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
		sz.setups = 1
	}
	var w runner
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		start := time.Now()
		nw, err := newRunner(name, seed, sz, tr)
		if err != nil {
			return nil, err
		}
		if err := nw.setup(); err != nil {
			nw.close()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		w = nw
	}
	defer w.close()

	http := name == "tuner_service" || name == "fleet_control"
	ms := measure(w, tr, http, seconds)
	finishErr := w.finish(traced)

	res := &result{Workload: name, Seed: seed, Traced: traced, Laps: ms.laps, values: metricSet{}}
	res.Attempted = ms.untr.attempted + ms.trc.attempted
	res.Failed = ms.untr.failed + ms.trc.failed
	res.Errors = append(append(res.Errors, ms.untr.errs...), ms.trc.errs...)
	if finishErr != nil {
		res.Errors = append(res.Errors, finishErr.Error())
	}
	res.Correct = res.Failed == 0 && finishErr == nil
	res.Samples = len(ms.untr.lat)
	m := res.values

	if !traced {
		m["ops_per_s"] = best(ms.untrLaps, func(l lapStat) float64 { return l.opsPerS }, true)
		m["p50_ms"] = best(ms.untrLaps, func(l lapStat) float64 { return l.p50 }, false)
		m["p95_ms"] = best(ms.untrLaps, func(l lapStat) float64 { return l.p95 }, false)
		m["cpu_s_per_kop"] = best(ms.untrLaps, func(l lapStat) float64 { return l.cpuPerKop }, false)
		m["alloc_kb_per_op"] = ratio(float64(ms.allocBytes)/1024, float64(ms.fixedAttempted))
		m["heap_live_mb"] = float64(ms.heapLive) / (1 << 20)
		m["setup_s"] = median(setups)
		res.Metrics = m.report(endToEnd)
		return res, nil
	}

	layerMetrics(m, ms, w, tr, http)
	res.Metrics = m.report(perLayer)
	layers := tr.perOpUS(spanParse) + tr.perOpUS(spanBind) + tr.perOpUS(spanOptimize) + tr.perOpUS(spanExecute) +
		tr.perOpUS(spanWAL) + m["engine.dml_self_us_per_op"] + m["server.self_us_per_op"]
	if http {
		layers += tr.perOpUS(spanShared)
	}
	res.Attributed = ratio(layers, tr.opUS())
	res.TraceFile = filepath.Join(outDir, "trace-"+name+".json")
	if err := tr.writeChrome(res.TraceFile); err != nil {
		return nil, err
	}
	return res, nil
}

// layerMetrics fills the per-layer metrics of a traced run: spans from the
// traced laps, counters and per-kind latencies from the untraced ones.
func layerMetrics(m metricSet, ms *measured, w runner, tr *tracer, http bool) {
	kinds := w.kinds()
	sorted := append([]float64(nil), ms.untr.lat...)
	sort.Float64s(sorted)
	m["p99_ms"] = quantile(sorted, 0.99)
	speed := func(l lapStat) float64 { return l.opsPerS }
	m["trace_overhead_frac"] = 1 - ratio(best(ms.trcLaps, speed, true), best(ms.untrLaps, speed, true))
	byKind := make([][]float64, len(kinds))
	for i, k := range ms.untr.kind {
		byKind[k] = append(byKind[k], ms.untr.lat[i])
	}
	for k, lat := range byKind {
		sort.Float64s(lat)
		if http {
			m["server.route."+kinds[k]+".p50_ms"] = quantile(lat, 0.5)
			m["server.route."+kinds[k]+".p99_ms"] = quantile(lat, 0.99)
		} else {
			m["engine.stmt."+kinds[k]+".p50_us"] = quantile(lat, 0.5) * 1000
		}
		if kinds[k] == "autotune_trigger" {
			m["autotune.tick_ms_p50"] = quantile(lat, 0.5)
		}
	}
	fixed, total := ms.fixed, ms.total
	n := float64(ms.fixedOps)
	m["sql.self_us_per_op"] = tr.perOpUS(spanParse)
	m["sql.calls_per_op"] = tr.callsPerOp(spanParse)
	m["plan.bind_self_us_per_op"] = tr.perOpUS(spanBind)
	m["optimizer.self_us_per_op"] = tr.perOpUS(spanOptimize)
	m["executor.self_us_per_op"] = tr.perOpUS(spanExecute)
	m["wal.device_self_us_per_op"] = tr.perOpUS(spanWAL)
	m["optimizer.optimize_calls_per_op"] = ratio(fixed.f("optimizer.optimize.calls"), n)
	m["optimizer.recost_fast_ratio"] = ratio(fixed.f("whatif.recost.fast"), fixed.f("whatif.recost.fast")+fixed.f("whatif.recost.full"))
	blocks := fixed.f("executor.batch.blocks_decoded") + fixed.f("executor.batch.block_cache_hits")
	m["executor.pages_skipped_ratio"] = ratio(fixed.f("executor.batch.pages_skipped"), blocks)
	m["executor.block_cache_hit_ratio"] = ratio(fixed.f("executor.batch.block_cache_hits"), blocks)
	m["buffer.hit_ratio"] = ms.fixedPool.HitRate()
	m["buffer.evictions_per_op"] = ratio(float64(ms.fixedPool.Evictions), n)
	m["buffer.writebacks_per_op"] = ratio(float64(ms.fixedPool.WriteBacks), n)
	_, _, overlap := w.engineState()
	m["vm.sim_s_per_op"] = ratio(ms.fixedVM.Elapsed(overlap), n)
	m["vm.seq_reads_per_op"] = ratio(float64(ms.fixedVM.SeqReads), n)
	m["vm.rand_reads_per_op"] = ratio(float64(ms.fixedVM.RandReads), n)
	m["vm.writes_per_op"] = ratio(float64(ms.fixedVM.Writes), n)
	m["vm.log_flushes_per_op"] = ratio(float64(ms.fixedVM.LogFlushes), n)
	m["engine.txn_aborts"] = total.f("txn.abort")
	m["engine.checkpoint_ms_p50"] = median(ms.background)
	for _, b := range ms.background {
		m["engine.checkpoint_stall_ms_max"] = math.Max(m["engine.checkpoint_stall_ms_max"], b)
	}
	m["wal.fsync_coalesced_ratio"] = ratio(fixed.f("wal.fsync.coalesced"), fixed.f("wal.fsync.coalesced")+fixed.f("wal.fsync.count"))
	m["core.cost_calls_per_op"] = tr.callsPerOp(spanShared)
	if a := tr.agg[spanShared]; a.calls > 0 {
		m["core.cost_self_us_per_call"] = float64(a.ns-tr.agg[spanWhatIf].ns) / 1e3 / float64(a.calls)
	}
	if a := tr.agg[spanWhatIf]; a.calls > 0 {
		m["optimizer.whatif_self_us_per_call"] = float64(a.ns) / 1e3 / float64(a.calls)
	}
	m["core.shared_hit_ratio"] = ratio(fixed.f("core.shared.hit"), fixed.f("core.shared.hit")+fixed.f("core.shared.miss"))
	m["core.prepared_hit_ratio"] = ratio(fixed.f("core.prepared.hit"), fixed.f("core.prepared.hit")+fixed.f("core.prepared.miss"))
	if http {
		m["server.self_us_per_op"] = tr.opUS() - tr.perOpUS(spanShared)
	}
	m["server.coalesce_hit_ratio"] = ratio(fixed.f("server.coalesce.hits"), fixed.f("server.coalesce.hits")+fixed.f("server.coalesce.miss"))
	var requests float64
	for k, v := range fixed {
		if strings.HasPrefix(k, "server.http.") {
			requests += float64(v)
		}
	}
	m["server.rejected_frac"] = ratio(fixed.f("server.admission.rejected")+fixed.f("server.jobs.rejected"), requests)
	m["server.job_queue_wait_ms_p50"] = median(tr.waits)
	m["placement.machine_memo_hit_ratio"] = ratio(fixed.f("placement.machine.memo_hits"), fixed.f("placement.machine.memo_hits")+fixed.f("placement.machine.solves"))
	m["placement.dirty_machines_per_event"] = ratio(fixed.f("placement.dirty.machines"), fixed.f("placement.apply.count"))
	m["autotune.resolves_per_tick"] = ratio(fixed.f("autotune.resolves"), fixed.f("autotune.ticks"))
	m["autotune.actuations"] = total.f("autotune.actuations")
	w.layerMetrics(m, tr)
	m["executor.rows_per_busy_s"] = ratio(ratio(fixed.f("executor.batch.rows"), n), m["executor.self_us_per_op"]/1e6)
}
