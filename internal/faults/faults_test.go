package faults

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cfg, err := Parse("seed=42,transient=0.1,noise=0.05,noise-sigma=0.02,spike=0.01,spike-factor=8,hard=0.005,panic=0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 42 || cfg.Transient != 0.1 || cfg.Noise != 0.05 ||
		cfg.NoiseSigma != 0.02 || cfg.Spike != 0.01 || cfg.SpikeFactor != 8 || cfg.Hard != 0.005 {
		t.Fatalf("parsed %+v", cfg)
	}
	back, err := Parse(cfg.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", cfg.String(), err)
	}
	if back != cfg {
		t.Fatalf("round trip %+v != %+v", back, cfg)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"transient", "transient=x", "transient=1.5", "bogus=0.1", "seed=abc",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestDeterministicOutcomes(t *testing.T) {
	in := New(Config{Seed: 7, Transient: 0.3, Noise: 0.5, NoiseSigma: 0.05})
	// Outcomes wrap fresh error values, so compare a canonical rendering.
	render := func(o Outcome) string {
		return fmt.Sprintf("err=%v transient=%v panic=%v scale=%.17g", o.Err, o.Transient, o.Panic, o.Scale)
	}
	for i := 0; i < 100; i++ {
		a := render(in.Measurement("probe|trial=3", i))
		b := render(in.Measurement("probe|trial=3", i))
		if a != b {
			t.Fatalf("attempt %d: outcome not deterministic: %s vs %s", i, a, b)
		}
	}
	// Different seeds give different streams.
	other := New(Config{Seed: 8, Transient: 0.3, Noise: 0.5, NoiseSigma: 0.05})
	same := 0
	for i := 0; i < 200; i++ {
		if render(in.Measurement("k", i)) == render(other.Measurement("k", i)) {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seeds 7 and 8 produced identical streams")
	}
}

func TestRatesApproximatelyHonored(t *testing.T) {
	in := New(Config{Seed: 1, Transient: 0.1, Noise: 0.2, NoiseSigma: 0.05})
	const n = 20000
	var transients, noisy int
	for i := 0; i < n; i++ {
		out := in.Measurement("rate-probe", i)
		if out.Err != nil {
			if !out.Transient || !errors.Is(out.Err, ErrTransient) {
				t.Fatalf("expected transient error, got %+v", out)
			}
			transients++
			continue
		}
		if out.Scale != 1 {
			if math.Abs(out.Scale-1) > 0.05+1e-12 {
				t.Fatalf("noise scale %g exceeds sigma", out.Scale)
			}
			noisy++
		}
	}
	if frac := float64(transients) / n; frac < 0.08 || frac > 0.12 {
		t.Errorf("transient rate %.3f, want ~0.10", frac)
	}
	// Noise only applies to non-erroring draws (~90% of n).
	if frac := float64(noisy) / (0.9 * n); frac < 0.16 || frac > 0.24 {
		t.Errorf("noise rate %.3f, want ~0.20", frac)
	}
}

func TestNilInjectorIsClean(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	out := in.Measurement("anything", 0)
	if out.Err != nil || out.Panic || out.Scale != 1 {
		t.Fatalf("nil injector injected %+v", out)
	}
	if New(Config{Seed: 5}) != nil {
		t.Fatal("all-zero rates should construct a nil injector")
	}
}

func TestHardAndPanicClasses(t *testing.T) {
	in := New(Config{Seed: 3, Hard: 1})
	out := in.Measurement("k", 0)
	if out.Err == nil || out.Transient || errors.Is(out.Err, ErrTransient) {
		t.Fatalf("hard=1 gave %+v", out)
	}
	in = New(Config{Seed: 3, Panic: 1})
	if out := in.Measurement("k", 0); !out.Panic {
		t.Fatalf("panic=1 gave %+v", out)
	}
}

func TestSpikeScalesElapsed(t *testing.T) {
	in := New(Config{Seed: 3, Spike: 1, SpikeFactor: 12})
	if out := in.Measurement("k", 0); out.Scale != 12 {
		t.Fatalf("spike=1 factor=12 gave scale %g", out.Scale)
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "")
	if in, err := FromEnv(); err != nil || in != nil {
		t.Fatalf("empty env gave (%v, %v)", in, err)
	}
	t.Setenv(EnvVar, "seed=9,transient=0.25")
	in, err := FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if !in.Enabled() || in.Config().Seed != 9 || in.Config().Transient != 0.25 {
		t.Fatalf("env injector %+v", in.Config())
	}
	t.Setenv(EnvVar, "transient=nope")
	if _, err := FromEnv(); err == nil {
		t.Fatal("malformed env spec should error")
	}
}
