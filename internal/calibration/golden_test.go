package calibration

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"dbvirt/internal/faults"
)

// quickLatticeSHA256 is the sha256 of SaveJSON for the quick
// configuration's 4x4 CPU × I/O lattice (the cmd/calibrate -quick machine
// and database over the axes 0.25, 0.5, 0.75, 1.0 on both dimensions).
const quickLatticeSHA256 = "f8faedd2f5e028f3ead024771cd05971df9ffbd60f59212936f9dc2970a90f56"

// quickConfig is the cmd/calibrate -quick configuration.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Machine.MemBytes = 8 << 20
	cfg.NarrowRows = 4000
	cfg.BigRows = 20000
	return cfg
}

// TestQuickLatticeGolden pins the calibrated lattice byte for byte: any
// change to the engine, buffer pool, VM model or probes that moves a
// single measured parameter changes the digest. A change that means to
// move the parameters re-records the constant and says so.
func TestQuickLatticeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow in -short mode")
	}
	if os.Getenv(faults.EnvVar) != "" {
		t.Skipf("%s is set; the lattice digest is defined for fault-free runs", faults.EnvVar)
	}
	cfg := quickConfig()
	axis := []float64{0.25, 0.5, 0.75, 1.0}
	g, err := New(cfg).CalibrateGrid(context.Background(), axis, axis, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != quickLatticeSHA256 {
		t.Errorf("quick 4x4 lattice sha256 = %s, want %s", got, quickLatticeSHA256)
	}
}
