// Package obs is the repo's dependency-free telemetry subsystem: an
// atomic metrics registry (counters, gauges, bounded histograms), a
// hierarchical tracer exportable as Chrome trace_event JSON, and a
// leveled structured (JSON-lines) event logger.
//
// Every sink is process-wide, so no layer carries telemetry in its
// config:
//
//   - Metrics are always on. Instrumented packages resolve their
//     counters once (usually in a package var) against the Global
//     registry; an update is a single atomic add, so the always-on cost
//     is negligible even on hot paths. CLIs dump the registry with
//     -metrics-out and publish it over expvar with -debug-addr.
//
//   - Traces and logs are opt-in. Library code calls StartSpan and
//     Debug/Info/Warn/Error unconditionally; until a CLI's Flags.Setup
//     installs a tracer or logger, each call is an atomic load and a nil
//     check, so instrumented code never branches on configuration.
//     Close flushes the files the flags name and uninstalls the sinks.
//
// Nothing in this package imports other dbvirt packages, so any layer
// (vm, optimizer, executor, ...) may depend on it without cycles.
package obs

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Global is the process-wide metrics registry. Instrumented packages
// register their counters, gauges, and histograms here; CLIs snapshot it
// for -metrics-out and -debug-addr.
var Global = NewRegistry()

// The process's trace and log sinks; nil (off) until Flags.Setup.
var (
	tracer atomic.Pointer[Tracer]
	logger atomic.Pointer[Logger]
)

// sinkMu guards the files Close writes: the -trace-out and -metrics-out
// paths given to Setup.
var (
	sinkMu               sync.Mutex
	traceOut, metricsOut string
)

// StartSpan starts a root span on the process tracer, or returns nil (a
// no-op span) when tracing is off.
func StartSpan(name string) *Span { return tracer.Load().Start(name) }

// Debug logs at debug level; kv are alternating key/value pairs.
func Debug(msg string, kv ...any) { logger.Load().Debug(msg, kv...) }

// Info logs at info level.
func Info(msg string, kv ...any) { logger.Load().Info(msg, kv...) }

// Warn logs at warn level.
func Warn(msg string, kv ...any) { logger.Load().Warn(msg, kv...) }

// Error logs at error level.
func Error(msg string, kv ...any) { logger.Load().Error(msg, kv...) }

// install makes t and l the process sinks, and the two paths (either may
// be empty) the files Close writes.
func install(t *Tracer, l *Logger, tracePath, metricsPath string) {
	sinkMu.Lock()
	defer sinkMu.Unlock()
	tracer.Store(t)
	logger.Store(l)
	traceOut, metricsOut = tracePath, metricsPath
}

// Close uninstalls the trace and log sinks, then writes the trace to
// -trace-out and the Global registry to -metrics-out. It is idempotent:
// a second call, or one before Setup, writes nothing and returns nil.
func Close() error {
	sinkMu.Lock()
	defer sinkMu.Unlock()
	t := tracer.Swap(nil)
	logger.Store(nil)
	var errs []error
	if t != nil {
		errs = append(errs, t.WriteChromeFile(traceOut))
	}
	if metricsOut != "" {
		errs = append(errs, WriteMetricsFile(metricsOut))
	}
	traceOut, metricsOut = "", ""
	return errors.Join(errs...)
}
