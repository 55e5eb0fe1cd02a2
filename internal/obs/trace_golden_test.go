package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the trace golden file")

// fakeClock ticks a fixed amount per call, making trace output
// deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// TestChromeTraceGolden builds a small span hierarchy under a
// deterministic clock and compares the exported Chrome trace JSON
// against the checked-in golden file.
func TestChromeTraceGolden(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_000_000, 0).UTC(), step: time.Millisecond}
	tr := NewTracerWithClock(clock.now)

	root := tr.Start("vdtune")
	root.SetArg("algo", "dp")
	cal := root.Child("calibrate")
	pt := cal.Child("calibrate.point")
	pt.SetArg("cpu", 0.25)
	pt.End()
	cal.End()
	solve := root.Child("solve.dp")
	worker := tr.Start("worker")
	worker.End()
	solve.SetArg("evaluations", 12)
	solve.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON differs from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Independently of the exact bytes, the document must be loadable as
	// a Chrome trace: a traceEvents array of complete events.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   *int64 `json:"ts"`
			Dur  *int64 `json:"dur"`
			PID  int    `json:"pid"`
			TID  int64  `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.TS == nil || ev.Dur == nil || ev.PID != 1 || ev.TID == 0 {
			t.Errorf("malformed event %+v", ev)
		}
	}
	// Spans end in completion order; the root spans the whole run.
	last := doc.TraceEvents[len(doc.TraceEvents)-1]
	if last.Name != "vdtune" {
		t.Errorf("last event = %q, want root span", last.Name)
	}
	for _, ev := range doc.TraceEvents[:len(doc.TraceEvents)-1] {
		if *ev.TS < *last.TS || *ev.TS+*ev.Dur > *last.TS+*last.Dur {
			t.Errorf("span %q [%d, %d] escapes root [%d, %d]",
				ev.Name, *ev.TS, *ev.TS+*ev.Dur, *last.TS, *last.TS+*last.Dur)
		}
	}
}
