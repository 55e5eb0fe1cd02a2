package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json's schema: exactly these keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness's registry and to
// the limits the driver enforces.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command = %v, want %v", f.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths = %v, want %v", f.Paths, want)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", f.RunSeconds, defaultSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(f.Workloads); n < 2 || n > 8 || n != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry (2 to 8 allowed)", n, len(workloadDefs))
	}
	for i, w := range f.Workloads {
		checkName(w.Name)
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the registry (or their whys differ)", i, w.Name, workloadDefs[i].Name)
		}
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if n := len(f.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the registry (1 to 16 allowed)", n, len(endToEnd))
	}
	setup := false
	for i, m := range f.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Bound == nil || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the registry %+v", i, m, d)
			continue
		}
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || !(*m.Bound > 0 && *m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s breaks a limit: %+v", m.Name, m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}

	if n := len(f.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the registry (1 to 128 allowed)", n, len(perLayer))
	}
	for i, m := range f.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the registry %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %s breaks a limit: %+v", m.Name, m)
		}
	}
	for _, n := range exactOnSingleClient {
		if !seen[n] {
			t.Errorf("exactOnSingleClient names %q, which is not declared", n)
		}
	}
}

// TestSmoke runs every workload at about 2% of its lap length, untraced
// and traced, with every correctness gate on, and checks that what a run
// reports is exactly what the registry declares.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	quiet = true
	sz := sizing{setups: 1, scale: 0.02}
	for _, wd := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(wd.Name, 1, 0.05, traced, sz)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wd.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					wd.Name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			declared := map[string]bool{}
			for _, d := range defs {
				declared[d.Name] = true
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s traced=%v: declared metric %s is not reported", wd.Name, traced, d.Name)
				}
			}
			for n := range res.values {
				if !declared[n] {
					t.Errorf("%s traced=%v: reports %s, which is not declared", wd.Name, traced, n)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if !(res.Metrics[d.Name].Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wd.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			if res.Attributed < 0.9 || res.Attributed > 1.1 {
				t.Errorf("%s: per-layer self times cover %.0f%% of the traced ops' time, want within 10%%", wd.Name, 100*res.Attributed)
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("%s: no trace file: %v", wd.Name, err)
			}
		}
	}
}
