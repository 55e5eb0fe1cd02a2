package faults

import "testing"

// diskTrace records every outcome of a fixed operation schedule.
func diskTrace(cfg DiskConfig) []int64 {
	d := NewDisk(cfg)
	var out []int64
	for i := 0; i < 50; i++ {
		o := d.Append(100)
		if o.Err != nil {
			out = append(out, -1, o.TornPrefix)
		} else {
			out = append(out, 0, o.TornPrefix)
		}
		if err := d.Fsync(); err != nil {
			out = append(out, -2)
		} else {
			out = append(out, 0)
		}
		out = append(out, int64(d.Read(4096)))
	}
	return out
}

func TestDiskInjectorDeterminism(t *testing.T) {
	cfg := DiskConfig{Seed: 9, CrashAfterRecords: 17, TornBytes: 7, FsyncErrRate: 0.2, PartialReadRate: 0.3}
	a := diskTrace(cfg)
	b := diskTrace(cfg)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d — outcomes are not a pure function of (seed, index)", i, a[i], b[i])
		}
	}
	// A different seed must change the rate-based outcomes.
	cfg.Seed = 10
	c := diskTrace(cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not change the outcome stream")
	}
}

func TestDiskInjectorCrashSchedule(t *testing.T) {
	d := NewDisk(DiskConfig{Seed: 1, CrashAfterRecords: 3})
	for i := 0; i < 3; i++ {
		if o := d.Append(10); o.Err != nil {
			t.Fatalf("append %d failed early: %v", i, o.Err)
		}
	}
	o := d.Append(10)
	if !IsCrash(o.Err) {
		t.Fatalf("append 4: err=%v, want crash", o.Err)
	}
	if o.TornPrefix != -1 {
		t.Fatalf("clean crash has torn prefix %d", o.TornPrefix)
	}
	if !d.Crashed() {
		t.Fatal("Crashed() false after crash point")
	}
	if err := d.Fsync(); !IsCrash(err) {
		t.Fatalf("post-crash fsync: %v", err)
	}
}

func TestDiskInjectorTornClamp(t *testing.T) {
	d := NewDisk(DiskConfig{Seed: 1, CrashAfterRecords: 1, TornBytes: 1000})
	d.Append(10)
	o := d.Append(10)
	if !IsCrash(o.Err) || o.TornPrefix != 10 {
		t.Fatalf("got err=%v torn=%d, want crash with torn clamped to 10", o.Err, o.TornPrefix)
	}
}

func TestDiskInjectorNil(t *testing.T) {
	if d := NewDisk(DiskConfig{Seed: 5}); d != nil {
		t.Fatal("all-zero config should return nil injector")
	}
	var d *DiskInjector
	if o := d.Append(10); o.Err != nil || o.TornPrefix != -1 {
		t.Fatalf("nil injector append: %+v", o)
	}
	if err := d.Fsync(); err != nil {
		t.Fatal(err)
	}
	if n := d.Read(100); n != 100 {
		t.Fatalf("nil injector read: %d", n)
	}
	if d.Crashed() {
		t.Fatal("nil injector crashed")
	}
}
