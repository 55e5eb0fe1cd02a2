package obs

import (
	"flag"
	"fmt"
	"os"
)

// Flags is the shared telemetry flag bundle of the CLIs: every command
// registers the same -trace-out, -metrics-out, -log-level/-v,
// -debug-addr, and -version flags and hands them to Setup.
type Flags struct {
	TraceOut   string
	MetricsOut string
	DebugAddr  string
	LogLevel   string
	Verbose    bool
	Version    bool
}

// Register adds the telemetry flags to a flag set.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace_event JSON file here on exit")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the metrics registry as JSON here on exit")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /debug/vars, /debug/pprof, and /metrics on this address")
	fs.StringVar(&f.LogLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.BoolVar(&f.Verbose, "v", false, "shorthand for -log-level debug")
	fs.BoolVar(&f.Version, "version", false, "print the build version and exit")
}

// Setup applies the parsed flags for the named tool: it installs the
// process trace and log sinks they ask for (logs go to stderr) and starts
// the debug server. Call Close to write -trace-out and -metrics-out.
// handled is true when -version was requested and printed (the caller
// should exit).
func (f *Flags) Setup(tool string) (handled bool, err error) {
	if f.Version {
		fmt.Printf("%s %s\n", tool, Version())
		return true, nil
	}
	level := LevelInfo
	if f.LogLevel != "" {
		if level, err = ParseLevel(f.LogLevel); err != nil {
			return false, err
		}
	}
	if f.Verbose {
		level = LevelDebug
	}
	var t *Tracer
	if f.TraceOut != "" {
		t = NewTracer()
	}
	var l *Logger
	if f.TraceOut != "" || f.MetricsOut != "" || f.DebugAddr != "" || f.Verbose || f.LogLevel != "info" {
		l = NewLogger(os.Stderr, level)
	}
	if f.DebugAddr != "" {
		addr, err := ServeDebug(f.DebugAddr)
		if err != nil {
			return false, fmt.Errorf("debug server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s/debug/pprof (metrics at /metrics)\n", tool, addr)
	}
	install(t, l, f.TraceOut, f.MetricsOut)
	return false, nil
}
