package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownFigIsAUsageError: a -fig name outside the paper record runs
// nothing, exits 2 and lists the names it accepts.
func TestUnknownFigIsAUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-fig", "6"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q for an unknown name", stdout.String())
	}
	for _, name := range []string{"figure3", "figure_control", "memory"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("usage error %q does not list %s", stderr.String(), name)
		}
	}
}
