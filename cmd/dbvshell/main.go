// Command dbvshell is a batch SQL shell against the engine running inside
// a configurable virtual machine: it reads statements separated by
// semicolons from stdin (or -c), executes them, and prints results along
// with the simulated cost of each statement. With -tpch it preloads the
// TPC-H-like workload database.
//
// Usage:
//
//	echo "SELECT count(*) FROM orders;" | dbvshell -tpch -cpu 0.5 -mem 0.5 -io 0.5
//	dbvshell -c "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;"
//	dbvshell -wal /var/lib/dbv -c "BEGIN; INSERT INTO t VALUES (2); COMMIT;"
//
// With -wal DIR the engine runs durably: statements are WAL-logged under
// DIR, the database is recovered on startup (recovery statistics print to
// stderr), and -checkpoint-every N snapshots the heap after every N
// statements.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dbvirt/internal/engine"
	"dbvirt/internal/obs"
	"dbvirt/internal/sql"
	"dbvirt/internal/telemetry"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// execObserver bridges the engine's per-statement execution records into
// the shell's telemetry tenant: predicted-vs-actual residuals and the
// actual-seconds sample stream. Sketch updates happen in the statement
// loop (every statement counts, not only the paths the engine observes).
type execObserver struct{ ten *telemetry.Tenant }

func (o execObserver) ObserveExec(sql string, predicted, actual float64) {
	o.ten.ObserveResidual(predicted, actual)
	o.ten.ObserveCosts([]float64{actual})
}

func main() {
	cpu := flag.Float64("cpu", 1.0, "VM CPU share")
	mem := flag.Float64("mem", 1.0, "VM memory share")
	ioShare := flag.Float64("io", 1.0, "VM I/O share")
	tpch := flag.Bool("tpch", false, "preload the TPC-H-like database (tiny scale)")
	command := flag.String("c", "", "execute this SQL instead of reading stdin")
	explain := flag.Bool("explain", false, "print the plan of every SELECT, and the victim-scan plan of every UPDATE/DELETE, before running it")
	walDir := flag.String("wal", "", "durable mode: open (recovering if needed) the database in this directory")
	ckptEvery := flag.Int("checkpoint-every", 0, "in durable mode, checkpoint after every N statements (0 = only on explicit CHECKPOINT)")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	flag.Parse()

	handled, err := oflags.Setup("dbvshell")
	if err != nil {
		fail("%v", err)
	}
	if handled {
		return
	}
	root := obs.StartSpan("dbvshell")
	obs.EnvSpanContext().Annotate(root)

	m, err := vm.NewMachine(vm.DefaultMachineConfig())
	if err != nil {
		fail("%v", err)
	}
	v, err := m.NewVM("shell", vm.Shares{CPU: *cpu, Memory: *mem, IO: *ioShare})
	if err != nil {
		fail("%v", err)
	}
	var db *engine.Database
	if *walDir != "" {
		var stats *engine.RecoveryStats
		db, stats, err = engine.Open(*walDir)
		if err != nil {
			fail("open %s: %v", *walDir, err)
		}
		defer db.Close()
		fmt.Fprint(os.Stderr, stats.String())
	} else {
		db = engine.NewDatabase()
	}
	s, err := engine.NewSession(db, v, engine.DefaultConfig())
	if err != nil {
		fail("%v", err)
	}
	ten := telemetry.NewHub(telemetry.Config{}).Tenant("shell")
	s.Observer = execObserver{ten}
	if *tpch {
		fmt.Fprintln(os.Stderr, "loading TPC-H-like database (tiny scale)...")
		if err := workload.Build(s, workload.TinyScale(), 1); err != nil {
			fail("load: %v", err)
		}
	}

	var input string
	if *command != "" {
		input = *command
	} else {
		data, err := io.ReadAll(bufio.NewReader(os.Stdin))
		if err != nil {
			fail("reading stdin: %v", err)
		}
		input = string(data)
	}

	sh := shell{explain: *explain, ckptEvery: *ckptEvery, ten: ten, span: root}
	if err := sh.run(s, input, os.Stdout); err != nil {
		fail("%v", err)
	}

	root.End()
	if err := obs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dbvshell: telemetry: %v\n", err)
		os.Exit(1)
	}
}

// shell runs statements against one session.
type shell struct {
	explain   bool              // print each SELECT's, UPDATE's and DELETE's plan before running it
	ckptEvery int               // checkpoint after every N statements outside a transaction; 0 = never
	ten       *telemetry.Tenant // sketches every statement; nil = none
	span      *obs.Span         // each statement's span is its child; nil = untraced
}

// run executes input's statements in order on s, writing their results to
// out. It stops at the first failing statement, after running the ones
// before it; input that does not lex runs up to the failing statement.
func (sh shell) run(s *engine.Session, input string, out io.Writer) error {
	stmts, splitErr := sql.Split(input)
	for i, stmt := range stmts {
		sp := sh.span.Child("statement")
		sp.SetArg("sql", firstLine(stmt))
		sh.ten.ObserveQuery(sql.Normalize(stmt))
		err := sh.runStatement(s, stmt, out)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", firstLine(stmt), err)
		}
		if sh.ckptEvery > 0 && (i+1)%sh.ckptEvery == 0 && !s.InTxn() {
			if err := s.CheckpointDurable(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return splitErr
}

func (sh shell) runStatement(s *engine.Session, src string, out io.Writer) error {
	stmt, err := sql.Parse(src)
	if err != nil {
		return err
	}
	start := s.VM.Snapshot()
	_, showPlan := stmt.(*sql.ExplainStmt)
	switch stmt.(type) {
	case *sql.SelectStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		showPlan = sh.explain
	}
	if showPlan {
		plan, err := s.Explain(src)
		if err != nil {
			return err
		}
		fmt.Fprint(out, plan)
	}
	switch stmt.(type) {
	case *sql.ExplainStmt: // its plan is its result
	case *sql.SelectStmt:
		rows, cols, err := s.QueryRows(src)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, strings.Join(cols, " | "))
		for _, row := range rows {
			var parts []string
			for _, v := range row {
				parts = append(parts, v.String())
			}
			fmt.Fprintln(out, strings.Join(parts, " | "))
		}
		fmt.Fprintf(out, "(%d rows)\n", len(rows))
	default:
		n, err := s.ExecStmt(stmt)
		if err != nil {
			return err
		}
		if n > 0 {
			fmt.Fprintf(out, "OK, %d rows affected\n", n)
		} else {
			fmt.Fprintln(out, "OK")
		}
	}
	fmt.Fprintf(out, "-- simulated time: %.6fs\n\n", s.VM.ElapsedSince(start))
	return nil
}

func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 60 {
		s = s[:60] + "..."
	}
	return s
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dbvshell: "+format+"\n", args...)
	obs.Close() // best-effort flush of -trace-out/-metrics-out
	os.Exit(1)
}
