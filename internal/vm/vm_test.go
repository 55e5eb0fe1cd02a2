package vm

import (
	"math"
	"testing"
	"testing/quick"
)

func testConfig() MachineConfig {
	cfg := DefaultMachineConfig()
	cfg.SchedOverhead = 0 // linear sharing unless a test opts in
	cfg.HypervisorIOOps = 0
	cfg.Overlap = 0
	return cfg
}

func TestResourceString(t *testing.T) {
	cases := map[Resource]string{CPU: "cpu", Memory: "memory", IO: "io", Resource(9): "resource(9)"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Resource(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestSharesEqual(t *testing.T) {
	s := Equal(4)
	for r := Resource(0); r < NumResources; r++ {
		if s.Get(r) != 0.25 {
			t.Errorf("Equal(4).Get(%s) = %g, want 0.25", r, s.Get(r))
		}
	}
}

func TestSharesWithAndGet(t *testing.T) {
	s := Equal(2).With(CPU, 0.75).With(IO, 0.1)
	if s.CPU != 0.75 || s.Memory != 0.5 || s.IO != 0.1 {
		t.Errorf("unexpected shares after With: %+v", s)
	}
	if s.Get(CPU) != 0.75 || s.Get(Memory) != 0.5 || s.Get(IO) != 0.1 {
		t.Errorf("Get mismatch: %+v", s)
	}
}

func TestSharesValid(t *testing.T) {
	cases := []struct {
		s    Shares
		want bool
	}{
		{Shares{0.5, 0.5, 0.5}, true},
		{Shares{1, 1, 1}, true},
		{Shares{0, 0.5, 0.5}, false},
		{Shares{0.5, -0.1, 0.5}, false},
		{Shares{0.5, 0.5, 1.01}, false},
		{Shares{math.NaN(), 0.5, 0.5}, false},
	}
	for _, c := range cases {
		if got := c.s.Valid(); got != c.want {
			t.Errorf("Valid(%+v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestMachineConfigValidate(t *testing.T) {
	good := DefaultMachineConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*MachineConfig){
		func(c *MachineConfig) { c.CPUOpsPerSec = 0 },
		func(c *MachineConfig) { c.SeqPagesPerSec = -1 },
		func(c *MachineConfig) { c.RandPagesPerSec = 0 },
		func(c *MachineConfig) { c.WritePagesPerSec = 0 },
		func(c *MachineConfig) { c.MemBytes = 0 },
		func(c *MachineConfig) { c.HypervisorIOOps = -5 },
		func(c *MachineConfig) { c.SchedOverhead = 1 },
		func(c *MachineConfig) { c.Overlap = 1.5 },
	}
	for i, mutate := range bad {
		c := DefaultMachineConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error, got nil", i)
		}
		if _, err := NewMachine(c); err == nil {
			t.Errorf("case %d: NewMachine accepted invalid config", i)
		}
	}
}

func TestNewVMOverCommit(t *testing.T) {
	m := MustMachine(testConfig())
	if _, err := m.NewVM("a", Shares{0.6, 0.5, 0.5}); err != nil {
		t.Fatalf("first VM: %v", err)
	}
	if _, err := m.NewVM("b", Shares{0.5, 0.5, 0.5}); err == nil {
		t.Fatal("expected CPU over-commit error, got nil")
	}
	if _, err := m.NewVM("b", Shares{0.4, 0.5, 0.5}); err != nil {
		t.Fatalf("second VM within capacity: %v", err)
	}
	if got := len(m.vms); got != 2 {
		t.Errorf("len(VMs) = %d, want 2", got)
	}
}

func TestNewVMInvalidShares(t *testing.T) {
	m := MustMachine(testConfig())
	if _, err := m.NewVM("a", Shares{0, 0.5, 0.5}); err == nil {
		t.Fatal("expected invalid-share error")
	}
}

func TestValidateShares(t *testing.T) {
	m := MustMachine(testConfig())
	if err := m.ValidateShares(Shares{1, 1, 1}); err != nil {
		t.Fatalf("full machine for first VM should be fine: %v", err)
	}
	if _, err := m.NewVM("a", Equal(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.ValidateShares(Shares{0.6, 0.5, 0.5}); err == nil {
		t.Fatal("expected over-commit error")
	}
	if err := m.ValidateShares(Shares{-1, 0.5, 0.5}); err == nil {
		t.Fatal("expected invalid-share error")
	}
}

func TestCPUAccountingScalesWithShare(t *testing.T) {
	cfg := testConfig()
	m := MustMachine(cfg)
	half, _ := m.NewVM("half", Shares{0.5, 0.5, 0.5})
	quarter, _ := m.NewVM("quarter", Shares{0.25, 0.25, 0.25})

	half.AccountCPU(1e9)
	quarter.AccountCPU(1e9)

	wantHalf := 1e9 / (cfg.CPUOpsPerSec * 0.5)
	wantQuarter := 1e9 / (cfg.CPUOpsPerSec * 0.25)
	if got := half.Snapshot().CPUSeconds; !close(got, wantHalf) {
		t.Errorf("half share cpu seconds = %g, want %g", got, wantHalf)
	}
	if got := quarter.Snapshot().CPUSeconds; !close(got, wantQuarter) {
		t.Errorf("quarter share cpu seconds = %g, want %g", got, wantQuarter)
	}
	if !close(quarter.Snapshot().CPUSeconds/half.Snapshot().CPUSeconds, 2) {
		t.Errorf("quarter share should be 2x slower than half share")
	}
}

func TestSchedOverheadSuperLinear(t *testing.T) {
	cfg := testConfig()
	cfg.SchedOverhead = 0.65
	m := MustMachine(cfg)
	v50, _ := m.NewVM("v50", Shares{0.5, 0.5, 0.5})
	v75, _ := m.NewVM("v75", Shares{0.5, 0.5, 0.5})
	if err := v75.SetShares(Shares{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	// Measure per-op time at 50% vs 75% CPU share. With SchedOverhead the
	// speedup from 50% -> 75% must exceed the linear ratio of 1.5.
	v50.AccountCPU(1e9)
	if err := v75.SetShares(Shares{0.75, 0.5, 0.5}); err == nil {
		t.Fatal("expected over-commit (v50 already holds 0.5 CPU)")
	}
	// Recreate on a fresh machine to avoid over-commit bookkeeping.
	m2 := MustMachine(cfg)
	w75, _ := m2.NewVM("w75", Shares{0.75, 0.5, 0.5})
	w75.AccountCPU(1e9)
	speedup := v50.Snapshot().CPUSeconds / w75.Snapshot().CPUSeconds
	if speedup <= 1.5 {
		t.Errorf("speedup 50%%->75%% = %.3f, want > 1.5 (super-linear)", speedup)
	}
	if speedup >= 2.5 {
		t.Errorf("speedup 50%%->75%% = %.3f, implausibly large", speedup)
	}
}

func TestIOAccounting(t *testing.T) {
	cfg := testConfig()
	m := MustMachine(cfg)
	v, _ := m.NewVM("v", Shares{0.5, 0.5, 0.5})
	v.AccountSeqRead(1024)
	wantIO := 1024 / (cfg.SeqPagesPerSec * 0.5)
	u := v.Snapshot()
	if !close(u.IOSeconds, wantIO) {
		t.Errorf("io seconds = %g, want %g", u.IOSeconds, wantIO)
	}
	if u.SeqReads != 1024 {
		t.Errorf("seq reads = %d, want 1024", u.SeqReads)
	}
	v.AccountRandRead(16)
	v.AccountWrite(32)
	u = v.Snapshot()
	if u.RandReads != 16 || u.Writes != 32 {
		t.Errorf("rand=%d writes=%d, want 16/32", u.RandReads, u.Writes)
	}
	wantIO += 16/(cfg.RandPagesPerSec*0.5) + 32/(cfg.WritePagesPerSec*0.5)
	if !close(u.IOSeconds, wantIO) {
		t.Errorf("io seconds after rand+write = %g, want %g", u.IOSeconds, wantIO)
	}
}

func TestHypervisorIOOverheadChargesCPU(t *testing.T) {
	cfg := testConfig()
	cfg.HypervisorIOOps = 2000
	m := MustMachine(cfg)
	v, _ := m.NewVM("v", Shares{1, 1, 1})
	v.AccountSeqRead(10)
	u := v.Snapshot()
	if want := 20000.0; u.CPUOps != want {
		t.Errorf("cpu ops from io overhead = %g, want %g", u.CPUOps, want)
	}
	if u.CPUSeconds <= 0 {
		t.Error("expected positive cpu seconds from hypervisor overhead")
	}
}

func TestOverlapModel(t *testing.T) {
	for _, overlap := range []float64{0, 0.5, 1} {
		cfg := testConfig()
		cfg.Overlap = overlap
		m := MustMachine(cfg)
		v, _ := m.NewVM("v", Shares{1, 1, 1})
		v.AccountCPU(cfg.CPUOpsPerSec)                // 1 cpu-second
		v.AccountSeqRead(int(cfg.SeqPagesPerSec) * 3) // 3 io-seconds
		want := 1 + 3 - overlap*1
		if got := v.Elapsed(); !close(got, want) {
			t.Errorf("overlap=%g: elapsed = %g, want %g", overlap, got, want)
		}
	}
}

func TestUsageSubAndElapsedSince(t *testing.T) {
	cfg := testConfig()
	m := MustMachine(cfg)
	v, _ := m.NewVM("v", Shares{1, 1, 1})
	v.AccountCPU(1e6)
	start := v.Snapshot()
	v.AccountCPU(1e6)
	v.AccountSeqRead(100)
	d := v.Since(start)
	if d.CPUOps != 1e6 {
		t.Errorf("interval cpu ops = %g, want 1e6", d.CPUOps)
	}
	if d.SeqReads != 100 {
		t.Errorf("interval seq reads = %d, want 100", d.SeqReads)
	}
	if got, want := v.ElapsedSince(start), d.CPUSeconds+d.IOSeconds; !close(got, want) {
		t.Errorf("ElapsedSince = %g, want %g", got, want)
	}
}

func TestSetSharesDynamic(t *testing.T) {
	cfg := testConfig()
	m := MustMachine(cfg)
	v, _ := m.NewVM("v", Shares{0.5, 0.5, 0.5})
	v.AccountCPU(cfg.CPUOpsPerSec) // 2 seconds at half share
	if err := v.SetShares(Shares{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	before := v.Snapshot().CPUSeconds
	v.AccountCPU(cfg.CPUOpsPerSec) // 1 second at full share
	delta := v.Snapshot().CPUSeconds - before
	if !close(before, 2) || !close(delta, 1) {
		t.Errorf("before=%g delta=%g, want 2 and 1", before, delta)
	}
	if v.MemBytes() != cfg.MemBytes {
		t.Errorf("MemBytes after reconfigure = %d, want %d", v.MemBytes(), cfg.MemBytes)
	}
}

func TestSetSharesRejectsOverCommitAndInvalid(t *testing.T) {
	m := MustMachine(testConfig())
	a, _ := m.NewVM("a", Equal(2))
	if _, err := m.NewVM("b", Equal(2)); err != nil {
		t.Fatal(err)
	}
	if err := a.SetShares(Shares{0.6, 0.5, 0.5}); err == nil {
		t.Fatal("expected over-commit error")
	}
	if err := a.SetShares(Shares{0, 0.5, 0.5}); err == nil {
		t.Fatal("expected invalid-share error")
	}
	if got := a.Shares(); got != Equal(2) {
		t.Errorf("shares changed after failed SetShares: %v", got)
	}
}

func TestMemBytes(t *testing.T) {
	cfg := testConfig()
	cfg.MemBytes = 1 << 30
	m := MustMachine(cfg)
	v, _ := m.NewVM("v", Shares{0.5, 0.25, 0.5})
	if got, want := v.MemBytes(), int64(1<<30)/4; got != want {
		t.Errorf("MemBytes = %d, want %d", got, want)
	}
}

func TestEffectiveRates(t *testing.T) {
	cfg := testConfig()
	m := MustMachine(cfg)
	v, _ := m.NewVM("v", Shares{0.25, 0.5, 0.5})
	r := v.EffectiveRates()
	if !close(r.CPUOpsPerSec, cfg.CPUOpsPerSec*0.25) {
		t.Errorf("cpu rate = %g", r.CPUOpsPerSec)
	}
	if !close(r.SeqPagesPerSec, cfg.SeqPagesPerSec*0.5) {
		t.Errorf("seq rate = %g", r.SeqPagesPerSec)
	}
	if !close(r.RandPagesPerSec, cfg.RandPagesPerSec*0.5) {
		t.Errorf("rand rate = %g", r.RandPagesPerSec)
	}
	if !close(r.WritePagesPerSec, cfg.WritePagesPerSec*0.5) {
		t.Errorf("write rate = %g", r.WritePagesPerSec)
	}
}

func TestZeroOrNegativeChargesIgnored(t *testing.T) {
	m := MustMachine(testConfig())
	v, _ := m.NewVM("v", Shares{1, 1, 1})
	v.AccountCPU(0)
	v.AccountCPU(-10)
	v.AccountSeqRead(0)
	v.AccountRandRead(-1)
	v.AccountWrite(0)
	if u := v.Snapshot(); u != (Usage{}) {
		t.Errorf("usage after no-op charges = %+v, want zero", u)
	}
}

// Property: CPU time is additive and proportional to ops for any valid share.
func TestCPUAccountingProperty(t *testing.T) {
	cfg := testConfig()
	f := func(shareRaw, opsRaw uint32) bool {
		share := 0.01 + 0.99*float64(shareRaw)/float64(math.MaxUint32)
		ops := 1 + float64(opsRaw%1000000)
		m := MustMachine(cfg)
		v, _ := m.NewVM("v", Shares{share, 0.5, 0.5})
		v.AccountCPU(ops)
		v.AccountCPU(ops)
		once := ops / (cfg.CPUOpsPerSec * share)
		return close(v.Snapshot().CPUSeconds, 2*once)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: elapsed time is monotonically non-increasing in every share.
func TestElapsedMonotoneInShares(t *testing.T) {
	cfg := DefaultMachineConfig() // includes sched overhead + overlap
	run := func(s Shares) float64 {
		m := MustMachine(cfg)
		v, _ := m.NewVM("v", s)
		v.AccountCPU(1e8)
		v.AccountSeqRead(1000)
		v.AccountRandRead(50)
		return v.Elapsed()
	}
	f := func(aRaw, bRaw uint32) bool {
		a := 0.05 + 0.95*float64(aRaw)/float64(math.MaxUint32)
		b := 0.05 + 0.95*float64(bRaw)/float64(math.MaxUint32)
		lo, hi := math.Min(a, b), math.Max(a, b)
		if close(lo, hi) {
			return true
		}
		// More CPU share never hurts.
		if run(Shares{lo, 0.5, 0.5}) < run(Shares{hi, 0.5, 0.5})-1e-12 {
			return false
		}
		// More IO share never hurts.
		return run(Shares{0.5, 0.5, lo}) >= run(Shares{0.5, 0.5, hi})-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func close(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
