// Command vdtuned runs the tuning-as-a-service daemon: an HTTP/JSON
// server exposing the what-if cost model (/v1/whatif), asynchronous
// design-search jobs (/v1/solve, /v1/jobs/{id}), and calibration-grid
// lookups (/v1/calibration/grid), with request coalescing, admission
// control, and graceful drain on SIGINT/SIGTERM. See DESIGN.md §10 and
// the README quickstart.
//
// Usage:
//
//	vdtuned [-addr :8080] [-scale small] [-grid grid.json | -calibrate]
//	        [-faults spec] [-max-inflight N] [-max-queue N] [-job-workers N]
//	        [-drain-timeout 30s] [-j N]
//	        [-autotune -autotune-workloads "w1=Q4x2,w2=Q13x2" [-autotune-interval 10s] ...]
//
// With -autotune, vdtuned also runs the closed-loop controller from
// internal/autotune over a managed deployment (one VM per named
// workload), steered by the same telemetry sketches the what-if traffic
// feeds. See GET /v1/autotune/status and DESIGN.md §15.
//
// Grid sources, in priority order: -grid serves a complete grid file
// (the -out file of cmd/calibrate, or one written by Grid.SaveJSON);
// -calibrate measures a fresh grid at startup (slow; honors -faults);
// otherwise a deterministic synthetic grid is used — fine for demos and
// load tests, not for real tuning.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dbvirt/internal/calibration"
	"dbvirt/internal/faults"
	"dbvirt/internal/obs"
	"dbvirt/internal/server"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/workload"
)

// defaultAxes is the lattice served when vdtuned calibrates or
// synthesizes its own grid: the quartile shares on every axis.
var defaultAxes = []float64{0.25, 0.5, 0.75, 1.0}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.String("scale", "small", "database scale: tiny, small, or experiment")
	gridPath := flag.String("grid", "", "serve a complete calibration grid file (calibrate -out)")
	calibrate := flag.Bool("calibrate", false, "measure a fresh calibration grid at startup")
	faultSpec := flag.String("faults", "", "fault-injection spec for -calibrate (see internal/faults)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent what-if sweeps (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max sweeps waiting for a slot before 429 (0 = 4x max-inflight)")
	jobWorkers := flag.Int("job-workers", 2, "solve worker-pool size")
	jobQueue := flag.Int("job-queue", 16, "max queued solve jobs before 429")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to finish accepted work on shutdown")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	jobs := flag.Int("j", 0, "solver parallelism (0 = GOMAXPROCS)")
	teleWindow := flag.Int("telemetry-window", 0, "sketch updates per drift window (0 = default 64)")
	reqWindow := flag.Duration("request-window", time.Minute, "span of the sliding-window request-latency histogram")
	atEnable := flag.Bool("autotune", false, "run the closed-loop autotuning controller")
	atWorkloads := flag.String("autotune-workloads", "", `managed tenants as "name=QUERYxN,..." (requires -autotune)`)
	atInterval := flag.Duration("autotune-interval", 10*time.Second, "control-loop tick period (0 = tick only via POST /v1/autotune/trigger)")
	atStep := flag.Float64("autotune-step", 0.25, "share-grid quantum for autotune re-solves")
	atResolveEvery := flag.Int("autotune-resolve-every", 1, "re-solve every Nth tick absent a drift alarm")
	atMinGain := flag.Float64("autotune-min-gain", 0.05, "minimum predicted relative gain before actuation")
	atConfirm := flag.Int("autotune-confirm", 2, "consecutive qualifying evaluations required (hysteresis)")
	atCooldown := flag.Int("autotune-cooldown", 8, "ticks to hold after an actuation")
	atMaxStep := flag.Float64("autotune-max-step", 0.25, "max per-resource share change in one actuation")
	atChangeCost := flag.Float64("autotune-change-cost", 0, "cost-of-change penalty per unit of moved share mass")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	flag.Parse()

	handled, err := oflags.Setup("vdtuned")
	if err != nil {
		fail("%v", err)
	}
	if handled {
		return
	}

	env, err := workload.EnvForScale(*scale)
	if err != nil {
		fail("%v", err)
	}
	env.Parallelism = *jobs

	grid, err := loadGrid(env, *gridPath, *calibrate, *faultSpec)
	if err != nil {
		fail("%v", err)
	}

	var atOpts *server.AutotuneOptions
	if *atEnable {
		refs, err := parseAutotuneWorkloads(*atWorkloads)
		if err != nil {
			fail("%v", err)
		}
		atOpts = &server.AutotuneOptions{
			Workloads:     refs,
			Interval:      *atInterval,
			Step:          *atStep,
			ResolveEvery:  *atResolveEvery,
			MinGain:       *atMinGain,
			ConfirmTicks:  *atConfirm,
			CooldownTicks: *atCooldown,
			MaxStepDelta:  *atMaxStep,
			ChangeCost:    *atChangeCost,
			Enabled:       true,
		}
	} else if *atWorkloads != "" {
		fail("-autotune-workloads requires -autotune")
	}

	srv, err := server.New(server.Config{
		Env:            env,
		Grid:           grid,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		JobWorkers:     *jobWorkers,
		JobQueue:       *jobQueue,
		DefaultTimeout: *reqTimeout,
		Parallelism:    *jobs,
		Telemetry:      telemetry.NewHub(telemetry.Config{Window: *teleWindow}),
		RequestWindow:  *reqWindow,
		Autotune:       atOpts,
	})
	if err != nil {
		fail("%v", err)
	}

	// Bind before reporting readiness: clients (and the process-level
	// tests) connect as soon as they read the "listening on" line.
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(lis) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	fmt.Printf("vdtuned: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fail("serve: %v", err)
	case sig := <-sigc:
		fmt.Printf("vdtuned: %s received, draining (timeout %s)\n", sig, *drainTimeout)
	}

	// Drain order: stop accepting new work and finish every accepted job,
	// then shut the listener down so late pollers still got their results.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "vdtuned: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	// A SIGTERM'd daemon persists -trace-out and -metrics-out before it
	// exits.
	if err := obs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "vdtuned: telemetry flush: %v\n", err)
	}
	fmt.Println("vdtuned: drained, exiting")
}

// loadGrid resolves the served calibration grid from the flag set.
func loadGrid(env *workload.Env, gridPath string, calibrate bool, faultSpec string) (*calibration.Grid, error) {
	switch {
	case gridPath != "":
		f, err := os.Open(gridPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := calibration.LoadGrid(f)
		if err != nil {
			return nil, fmt.Errorf("loading grid %s: %w", gridPath, err)
		}
		return g, nil
	case calibrate:
		if faultSpec != "" {
			cfg, err := faults.Parse(faultSpec)
			if err != nil {
				return nil, fmt.Errorf("-faults: %w", err)
			}
			env.CalCfg.Faults = faults.New(cfg)
		}
		fmt.Println("vdtuned: calibrating grid (this can take a while)...")
		return env.Calibrator().CalibrateGrid(context.Background(), defaultAxes, defaultAxes, calibration.GridOptions{})
	default:
		return calibration.SyntheticGrid(defaultAxes, defaultAxes)
	}
}

// parseAutotuneWorkloads parses "-autotune-workloads" specs of the form
// "name=QUERY" or "name=QUERYxN", comma-separated (workload.ParseRepeat).
func parseAutotuneWorkloads(spec string) ([]server.WorkloadRef, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-autotune requires -autotune-workloads (e.g. \"w1=Q4x2,w2=Q13x2\")")
	}
	var refs []server.WorkloadRef
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, ref, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-autotune-workloads: %q is not name=QUERY[xN]", part)
		}
		q, n, err := workload.ParseRepeat(ref)
		if err != nil {
			return nil, fmt.Errorf("-autotune-workloads: %w", err)
		}
		refs = append(refs, server.WorkloadRef{Name: name, Query: q, Repeat: n})
	}
	return refs, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vdtuned: "+format+"\n", args...)
	obs.Close() // best-effort flush of -trace-out/-metrics-out
	os.Exit(1)
}
