// Package faults is a seeded, deterministic fault injector for the
// simulated measurement path. Calibration measurements are, in a real
// deployment, noisy and occasionally fail outright (§4 of the paper reads
// execution times off a live system); the simulator is perfectly clean, so
// without injection none of the recovery machinery — retries, trimmed
// medians, robust fits, bad-point interpolation — would ever execute. An
// Injector makes every failure mode reproducible: the outcome of a
// measurement is a pure function of (seed, measurement key, attempt), so
// it does not depend on goroutine scheduling, wall-clock time, or how many
// workers share the injector. Two runs with the same seed inject exactly
// the same faults at exactly the same probes, which is what lets the
// checkpoint/resume and parallel-equivalence tests demand bit-identical
// results even with injection enabled.
//
// The injector models four failure classes, each at an independent rate:
//
//   - transient errors (ErrTransient): the measurement fails but a retry
//     may succeed — the retry draws a fresh outcome for attempt+1;
//   - hard errors (ErrHard): the measurement fails on every attempt;
//   - latency spikes: the measurement succeeds but its elapsed time is
//     multiplied by SpikeFactor (an outlier for trimmed aggregation);
//   - multiplicative noise: the elapsed time is scaled by a uniform
//     factor in [1-NoiseSigma, 1+NoiseSigma] (zero-mean jitter).
//
// A Panic rate exists for tests: it makes the measurement path panic so
// worker-pool recover() handling can be exercised.
//
// Injection is enabled for a whole process with the DBVIRT_FAULTS
// environment variable (see Parse for the spec syntax), which is how the
// CI fault-injection job runs the entire test suite under faults, or
// programmatically by handing an Injector to the measuring component.
//
// The package is dependency-free (like internal/obs) so any layer may
// consult it without import cycles.
package faults

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// EnvVar is the environment variable that enables process-wide fault
// injection; its value is a Parse spec.
const EnvVar = "DBVIRT_FAULTS"

// FromEnv builds an injector from the DBVIRT_FAULTS environment variable.
// An unset or empty variable returns nil (no injection); a malformed spec
// returns an error so misconfigured CI jobs fail loudly instead of
// silently testing nothing.
func FromEnv() (*Injector, error) {
	spec := os.Getenv(EnvVar)
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	cfg, err := Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", EnvVar, err)
	}
	return New(cfg), nil
}

// ErrTransient is the injected retryable measurement failure.
var ErrTransient = errors.New("faults: injected transient measurement error")

// ErrHard is the injected permanent measurement failure.
var ErrHard = errors.New("faults: injected hard failure")

// Config sets the per-measurement probability of each failure class. All
// rates are probabilities in [0, 1] and are evaluated independently per
// (key, attempt); zero disables that class.
type Config struct {
	// Seed selects the deterministic fault stream; runs with equal seeds
	// (and equal rates) inject identical faults.
	Seed int64
	// Transient is the rate of retryable measurement errors.
	Transient float64
	// Hard is the rate of permanent measurement failures.
	Hard float64
	// Spike is the rate of latency spikes; a spiked measurement's elapsed
	// time is multiplied by SpikeFactor.
	Spike float64
	// SpikeFactor is the latency-spike multiplier (default 10).
	SpikeFactor float64
	// Noise is the rate of multiplicative timing noise.
	Noise float64
	// NoiseSigma is the half-width of the uniform noise factor (default
	// 0.05, i.e. ±5%).
	NoiseSigma float64
	// Panic is the rate of injected panics in the measurement path; only
	// tests should set it.
	Panic float64
}

// Validate checks every rate and magnitude is in range.
func (c Config) Validate() error {
	rates := map[string]float64{
		"transient": c.Transient, "hard": c.Hard, "spike": c.Spike,
		"noise": c.Noise, "panic": c.Panic, "noise-sigma": c.NoiseSigma,
	}
	for name, v := range rates {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s=%g out of range [0,1]", name, v)
		}
	}
	if c.SpikeFactor < 0 {
		return fmt.Errorf("faults: spike-factor=%g must be non-negative", c.SpikeFactor)
	}
	return nil
}

func (c Config) spikeFactor() float64 {
	if c.SpikeFactor == 0 {
		return 10
	}
	return c.SpikeFactor
}

func (c Config) noiseSigma() float64 {
	if c.NoiseSigma == 0 {
		return 0.05
	}
	return c.NoiseSigma
}

// String renders the config in Parse syntax (deterministic field order).
func (c Config) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("transient", c.Transient)
	add("hard", c.Hard)
	add("spike", c.Spike)
	add("spike-factor", c.SpikeFactor)
	add("noise", c.Noise)
	add("noise-sigma", c.NoiseSigma)
	add("panic", c.Panic)
	return strings.Join(parts, ",")
}

// Parse reads a fault spec of the form
//
//	seed=42,transient=0.1,noise=0.05,noise-sigma=0.05,spike=0.01,hard=0,panic=0
//
// Unknown keys are rejected; omitted keys default to zero (seed defaults
// to 1 so that an all-rates spec is still deterministic).
func Parse(spec string) (Config, error) {
	cfg := Config{Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: bad spec element %q (want key=value)", part)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		if k == "seed" {
			s, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("faults: bad seed %q", v)
			}
			cfg.Seed = s
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Config{}, fmt.Errorf("faults: bad value %q for %s", v, k)
		}
		switch k {
		case "transient":
			cfg.Transient = f
		case "hard":
			cfg.Hard = f
		case "spike":
			cfg.Spike = f
		case "spike-factor":
			cfg.SpikeFactor = f
		case "noise":
			cfg.Noise = f
		case "noise-sigma":
			cfg.NoiseSigma = f
		case "panic":
			cfg.Panic = f
		default:
			return Config{}, fmt.Errorf("faults: unknown spec key %q", k)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Injector draws deterministic fault outcomes. The nil *Injector is valid
// and injects nothing, so callers hold one unconditionally and skip the
// configuration branch. An Injector is immutable and safe for concurrent
// use (outcomes are pure functions; no state is consumed).
type Injector struct {
	cfg Config
}

// Disabled is a non-nil injector that injects nothing. Components that
// treat a nil injector as "consult DBVIRT_FAULTS" accept Disabled to
// force fault-free operation even when the environment enables injection
// — e.g. the fault-free baselines in tests running under the CI
// fault-injection job.
var Disabled = &Injector{}

// New creates an injector; a config with all rates zero returns nil (no
// injection), so "no faults configured" and "no injector" are the same
// cheap nil check.
func New(cfg Config) *Injector {
	if cfg.Transient == 0 && cfg.Hard == 0 && cfg.Spike == 0 && cfg.Noise == 0 && cfg.Panic == 0 {
		return nil
	}
	return &Injector{cfg: cfg}
}

// Config returns the injector's configuration (zero for nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Enabled reports whether any fault class is active.
func (in *Injector) Enabled() bool {
	if in == nil {
		return false
	}
	c := in.cfg
	return c.Transient != 0 || c.Hard != 0 || c.Spike != 0 || c.Noise != 0 || c.Panic != 0
}

// Outcome is the injected fate of one measurement attempt.
type Outcome struct {
	// Err, when non-nil, fails the measurement; check Transient to decide
	// whether to retry.
	Err error
	// Transient marks Err as retryable.
	Transient bool
	// Panic instructs the measurement path to panic (tests of recover()).
	Panic bool
	// Scale multiplies the measured elapsed time (1 when clean).
	Scale float64
}

// Measurement returns the outcome for one attempt of the measurement
// identified by key. The key should name the probe uniquely and stably —
// e.g. "query|shares|trial" — and must not encode scheduling artifacts
// (worker IDs, timestamps), or determinism across schedules is lost.
// Attempts of the same key draw independent outcomes, which is what makes
// retrying a transient fault useful.
func (in *Injector) Measurement(key string, attempt int) Outcome {
	if in == nil {
		return Outcome{Scale: 1}
	}
	h := hash64(uint64(in.cfg.Seed), key, uint64(attempt))
	out := Outcome{Scale: 1}
	// Each class draws from an independent substream so the rates do not
	// interact; precedence (panic > hard > transient) only matters when
	// multiple classes fire on the same attempt.
	if in.cfg.Panic > 0 && unit(h, 0) < in.cfg.Panic {
		out.Panic = true
		return out
	}
	if in.cfg.Hard > 0 && unit(h, 1) < in.cfg.Hard {
		out.Err = fmt.Errorf("%w (key %q)", ErrHard, key)
		return out
	}
	if in.cfg.Transient > 0 && unit(h, 2) < in.cfg.Transient {
		out.Err = fmt.Errorf("%w (key %q, attempt %d)", ErrTransient, key, attempt)
		out.Transient = true
		return out
	}
	if in.cfg.Spike > 0 && unit(h, 3) < in.cfg.Spike {
		out.Scale *= in.cfg.spikeFactor()
	}
	if in.cfg.Noise > 0 && unit(h, 4) < in.cfg.Noise {
		// Uniform multiplicative jitter in [1-sigma, 1+sigma]: zero-mean,
		// so trimmed-median aggregation cancels it in expectation.
		out.Scale *= 1 + in.cfg.noiseSigma()*(2*unit(h, 5)-1)
	}
	return out
}

// hash64 mixes the seed, key, and attempt into one 64-bit state
// (FNV-1a over the key, then splitmix64 finalization).
func hash64(seed uint64, key string, attempt uint64) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= attempt * 0x9e3779b97f4a7c15
	return mix(h)
}

// mix is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit derives the n-th uniform [0,1) variate from state h.
func unit(h uint64, n uint64) float64 {
	return float64(mix(h+n*0x632be59bd9b4e019)>>11) / float64(1<<53)
}
