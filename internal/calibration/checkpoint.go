package calibration

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"

	"dbvirt/internal/optimizer"
)

// The paper's calibration is expensive and meant to be run once, offline,
// per physical machine ("we can obtain P for different R's off-line, and
// then use the different P values for all virtualization design
// problems"), and its §7 remedy for calibration cost is to amortize one
// lattice sweep across every later tuning problem. A grid file makes that
// concrete, and it has one format: a versioned JSON document holding the
// CPU and I/O axes, the memory rule (see Memory), every point by dense
// index (see Grid.index), a checksum (detecting torn or hand-edited
// files) and, in a sweep's file, a config signature (detecting
// resumption under a different machine, engine, fault, or axis
// configuration, any of which would change the measured values). A sweep
// with a CheckpointPath writes that file, atomically via rename, after
// every completed point, so a crash or cancellation near the end forfeits
// nothing; the finished file is the grid that LoadGrid reads in every
// later tuning session. Because measurements — even
// fault-injected ones — are deterministic functions of the calibration
// config, a resumed run reproduces bit-for-bit the grid an uninterrupted
// run would have produced.

// checkpointVersion is bumped whenever the on-disk format changes
// (version 1 had a memory axis).
const checkpointVersion = 2

type checkpointJSON struct {
	Version   int               `json:"version"`
	Checksum  string            `json:"checksum"`
	ConfigSig string            `json:"config_sig,omitempty"`
	CPUs      []float64         `json:"cpus"`
	IOs       []float64         `json:"ios"`
	Memory    Memory            `json:"memory"`
	Points    []checkpointPoint `json:"points"`
}

// checkpointPoint stores one lattice point by dense index. Go marshals
// float64 with the shortest representation that round-trips, so restored
// parameters are bit-identical to measured ones.
type checkpointPoint struct {
	Idx    int              `json:"idx"`
	Params optimizer.Params `json:"params"`
}

// signature fingerprints everything that determines measured parameter
// values: the machine and engine models, table sizes, seeds, the fault
// configuration (injected faults perturb measurements deterministically),
// the trial count, and the lattice axes. Two runs with equal signatures
// measure identical grids, which is what makes resuming sound.
func (c Config) signature(cpus, ios []float64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "machine=%+v|engine=%+v|narrow=%d|big=%d|rand=%d|seed=%d|faults=%s|trials=%d|cpus=%v|ios=%v",
		c.Machine, c.Engine, c.NarrowRows, c.BigRows, c.randRows(), c.Seed,
		c.Faults.Config().String(), c.trials(), cpus, ios)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checksum hashes the checkpoint's canonical JSON form with the Checksum
// field cleared.
func (ck checkpointJSON) checksum() (string, error) {
	ck.Checksum = ""
	b, err := json.Marshal(ck)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// marshal encodes the points of g marked in done (every point when done
// is nil) in index order, so the output is deterministic; sig is the
// config signature of a sweep's file and empty for SaveJSON.
func (g *Grid) marshal(sig string, done []bool) ([]byte, error) {
	ck := checkpointJSON{
		Version:   checkpointVersion,
		ConfigSig: sig,
		CPUs:      g.cpus,
		IOs:       g.ios,
		Memory:    g.mem,
	}
	for idx := range g.points {
		if done == nil || done[idx] {
			ck.Points = append(ck.Points, checkpointPoint{Idx: idx, Params: g.points[idx]})
		}
	}
	sum, err := ck.checksum()
	if err != nil {
		return nil, err
	}
	ck.Checksum = sum
	b, err := json.MarshalIndent(ck, "", "  ")
	return append(b, '\n'), err
}

// SaveJSON writes the complete grid in the grid-file format LoadGrid
// reads. It writes no config signature, so its output depends only on the
// lattice, not on whether the grid was measured, loaded or built.
func (g *Grid) SaveJSON(w io.Writer) error {
	b, err := g.marshal("", nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// writeCheckpoint atomically persists the completed lattice points of a
// sweep whose config signature is sig.
func writeCheckpoint(path, sig string, g *Grid, completed []bool) error {
	b, err := g.marshal(sig, completed)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// decodeGridFile reads a grid file and verifies its version and checksum.
func decodeGridFile(r io.Reader) (checkpointJSON, error) {
	var ck checkpointJSON
	if err := json.NewDecoder(r).Decode(&ck); err != nil {
		return ck, fmt.Errorf("decoding grid file: %w", err)
	}
	if ck.Version != checkpointVersion {
		return ck, fmt.Errorf("grid file version %d, want %d: re-run calibrate to write a version-%d grid file",
			ck.Version, checkpointVersion, checkpointVersion)
	}
	want, err := ck.checksum()
	if err != nil {
		return ck, err
	}
	if ck.Checksum != want {
		return ck, fmt.Errorf("grid file checksum mismatch (file corrupt or edited): have %s, want %s", ck.Checksum, want)
	}
	return ck, nil
}

// restore copies the file's points into points, marking each in done, and
// returns how many points it newly marked.
func (ck checkpointJSON) restore(points []optimizer.Params, done []bool) (int, error) {
	count := 0
	for _, pt := range ck.Points {
		if pt.Idx < 0 || pt.Idx >= len(points) {
			return 0, fmt.Errorf("grid file point index %d out of range", pt.Idx)
		}
		if err := pt.Params.Validate(); err != nil {
			return 0, fmt.Errorf("grid file point %d: %w", pt.Idx, err)
		}
		if !done[pt.Idx] {
			done[pt.Idx] = true
			count++
		}
		points[pt.Idx] = pt.Params
	}
	return count, nil
}

// LoadGrid reads a grid file written by SaveJSON or by a CalibrateGrid
// sweep, for serving: the daemon's /v1/calibration/grid endpoint and the
// what-if model answer straight from it without re-running any
// calibration. The version and checksum are verified, but — unlike
// resumption — no config signature is required: serving only reads the
// measured values. Every lattice point must be present; the file of an
// interrupted sweep is an error naming how many points are missing. The
// grid is built through NewGrid, so its axes must be non-empty and sorted
// and its memory rule valid.
func LoadGrid(r io.Reader) (*Grid, error) {
	ck, err := decodeGridFile(r)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	n := len(ck.CPUs) * len(ck.IOs)
	have := len(ck.Points) // bounds the points held, so n is not allocated for a short file
	var points []optimizer.Params
	if have >= n {
		points = make([]optimizer.Params, n)
		if have, err = ck.restore(points, make([]bool, n)); err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
	}
	if have != n {
		return nil, fmt.Errorf("calibration: grid file is incomplete: %d of %d lattice points, %d missing (resume the calibration before serving it)",
			have, n, n-have)
	}
	return NewGrid(ck.CPUs, ck.IOs, ck.Memory, points)
}

// loadCheckpoint restores completed points from path into g, marking them
// in completed, and returns how many points were restored. A missing file
// is not an error (the run simply starts fresh); a corrupt, incompatible,
// or differently-configured file (one whose signature is not sig) is.
func loadCheckpoint(path, sig string, g *Grid, completed []bool) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	ck, err := decodeGridFile(f)
	if err != nil {
		return 0, err
	}
	if ck.ConfigSig != sig {
		return 0, fmt.Errorf("checkpoint was taken under a different calibration config or axes (signature %s, this run %s)", ck.ConfigSig, sig)
	}
	if !slices.Equal(ck.CPUs, g.cpus) || !slices.Equal(ck.IOs, g.ios) {
		return 0, fmt.Errorf("checkpoint axes do not match this run")
	}
	return ck.restore(g.points, completed)
}
