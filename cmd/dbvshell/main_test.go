package main

import (
	"strings"
	"testing"

	"dbvirt/internal/engine"
	"dbvirt/internal/vm"
)

// runInput runs input through a fresh shell session and returns its output.
func runInput(t *testing.T, sh shell, input string) (string, error) {
	t.Helper()
	v, err := vm.MustMachine(vm.DefaultMachineConfig()).NewVM("shell", vm.Shares{CPU: 1, Memory: 1, IO: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(engine.NewDatabase(), v, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = sh.run(s, input, &out)
	return out.String(), err
}

// TestShellSplitsLikeTheLexer pins statement splitting to the lexer:
// comments and string literals hide quotes and semicolons, and a comment
// before a statement does not change how it runs.
func TestShellSplitsLikeTheLexer(t *testing.T) {
	for _, c := range []struct{ input, want string }{
		{"CREATE TABLE t (a INT); INSERT INTO t VALUES (1); -- check it\nSELECT a FROM t", "a\n1\n(1 rows)\n"},
		{"CREATE TABLE t (a INT); -- don't split here\nINSERT INTO t VALUES (1); SELECT a FROM t", "a\n1\n(1 rows)\n"},
		{"CREATE TABLE t (s TEXT); INSERT INTO t VALUES ('a;b'); SELECT s FROM t;", "s\na;b\n(1 rows)\n"},
	} {
		out, err := runInput(t, shell{}, c.input)
		if err != nil {
			t.Errorf("%q: %v\n%s", c.input, err, out)
			continue
		}
		if got := strings.Count(out, "-- simulated time:"); got != 3 {
			t.Errorf("%q ran %d statements, want 3:\n%s", c.input, got, out)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%q: output lacks %q:\n%s", c.input, c.want, out)
		}
	}
}

// TestShellRunsUpToALexerError checks that input which stops lexing runs
// the statements before the failing one, then reports the lexer's
// positioned error.
func TestShellRunsUpToALexerError(t *testing.T) {
	const input = "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT 'oops"
	out, err := runInput(t, shell{}, input)
	if err == nil || err.Error() != "sql: unterminated string at offset 57" {
		t.Fatalf("error %v, want the unterminated string at offset 57", err)
	}
	if !strings.Contains(out, "OK, 1 rows affected") || strings.Count(out, "-- simulated time:") != 2 {
		t.Errorf("the two statements before the error did not run:\n%s", out)
	}
}

// TestShellExplain checks the dispatch on statement type: EXPLAIN prints
// a plan and nothing else, and -explain adds the plan before a SELECT's
// rows and an UPDATE's count but not before an INSERT.
func TestShellExplain(t *testing.T) {
	out, err := runInput(t, shell{explain: true},
		"CREATE TABLE t (a INT); INSERT INTO t VALUES (1); -- plan\nEXPLAIN SELECT a FROM t; SELECT a FROM t; UPDATE t SET a = 2")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if got := strings.Count(out, "SeqScan"); got != 3 {
		t.Errorf("%d plans, want 3 (EXPLAIN, SELECT, UPDATE):\n%s", got, out)
	}
	if !strings.Contains(out, "Update on t") || !strings.Contains(out, "(1 rows)") {
		t.Errorf("missing the UPDATE's plan or the SELECT's rows:\n%s", out)
	}
}
