package faults

import (
	"errors"
	"fmt"
)

// Disk-fault injection for the durability layer. The WAL and snapshot
// writers consult a DiskInjector at every record append, fsync, and read so
// that crash recovery is testable the same way calibration is: every
// failure is a pure function of (seed, operation index), so a crash test
// that kills the log at record 17 kills it at record 17 on every run, on
// every machine, under -race, regardless of scheduling.
//
// The injector models four durable-storage failure classes:
//
//   - crash-at-record-boundary: the device "loses power" immediately after
//     a configured number of appended records; the record at the boundary
//     is fully durable, everything after it is gone (ErrCrash);
//   - torn write: the crash happens mid-record — only a prefix of the
//     final record's bytes reaches the platter, exercising checksum-based
//     tail truncation;
//   - fsync error: Sync fails (as on a dying disk or a full filesystem);
//     the writer must surface the error instead of acking the commit;
//   - partial read: a read returns fewer bytes than requested, exercising
//     the reader's short-read handling.

// ErrCrash is returned by a fault device once its configured crash point
// is reached; every subsequent operation also fails with it. Callers treat
// it as process death: the only valid continuation is to reopen the files
// and run recovery.
var ErrCrash = errors.New("faults: injected crash")

// ErrFsync is the injected fsync failure.
var ErrFsync = errors.New("faults: injected fsync error")

// IsCrash reports whether err is (or wraps) an injected crash.
func IsCrash(err error) bool { return errors.Is(err, ErrCrash) }

// DiskConfig configures deterministic durable-storage faults.
type DiskConfig struct {
	// Seed selects the deterministic outcome stream for the rate-based
	// classes (fsync errors, partial reads).
	Seed int64
	// CrashAfterRecords, when > 0, crashes the device at the boundary
	// after the N-th appended record: record N is durable, later appends
	// fail with ErrCrash.
	CrashAfterRecords int64
	// TornBytes, when > 0 together with CrashAfterRecords, makes the
	// crash tear the following record instead of dropping it cleanly: up
	// to TornBytes bytes of record N+1 reach the device before the crash.
	TornBytes int64
	// FsyncErrRate is the per-fsync probability of an injected ErrFsync.
	FsyncErrRate float64
	// PartialReadRate is the per-read probability that the device returns
	// a short read (at least one byte less than requested).
	PartialReadRate float64
}

// DiskInjector draws deterministic disk-fault outcomes. Unlike Injector it
// is stateful — the crash point is an absolute position in the device's
// append history — but the state advances identically on every run, so the
// outcomes are still reproducible. The nil *DiskInjector injects nothing.
// A DiskInjector must not be shared by concurrent devices; each device
// owns one (matching the single-writer WAL discipline).
type DiskInjector struct {
	cfg     DiskConfig
	records int64 // appended records so far
	reads   int64 // read operations so far
	fsyncs  int64 // fsync operations so far
	crashed bool
}

// NewDisk creates a disk injector; an all-zero config returns nil.
func NewDisk(cfg DiskConfig) *DiskInjector {
	if cfg.CrashAfterRecords == 0 && cfg.FsyncErrRate == 0 && cfg.PartialReadRate == 0 {
		return nil
	}
	return &DiskInjector{cfg: cfg}
}

// Crashed reports whether the injected crash point has been reached.
func (d *DiskInjector) Crashed() bool { return d != nil && d.crashed }

// AppendOutcome is the injected fate of one record append.
type AppendOutcome struct {
	// Err, when non-nil, is the injected failure (ErrCrash).
	Err error
	// TornPrefix, when >= 0, instructs the device to persist only the
	// first TornPrefix bytes of the record before failing; -1 means the
	// record is dropped entirely.
	TornPrefix int64
}

// Append returns the outcome for appending one record of the given size.
// Once the crash point is reached every later append fails too.
func (d *DiskInjector) Append(size int64) AppendOutcome {
	if d == nil {
		return AppendOutcome{TornPrefix: -1}
	}
	if d.crashed {
		return AppendOutcome{Err: ErrCrash, TornPrefix: -1}
	}
	d.records++
	if d.cfg.CrashAfterRecords > 0 && d.records > d.cfg.CrashAfterRecords {
		d.crashed = true
		torn := int64(-1)
		if d.cfg.TornBytes > 0 {
			torn = d.cfg.TornBytes
			if torn > size {
				torn = size
			}
		}
		return AppendOutcome{Err: fmt.Errorf("%w (record boundary %d)", ErrCrash, d.cfg.CrashAfterRecords), TornPrefix: torn}
	}
	return AppendOutcome{TornPrefix: -1}
}

// Fsync returns the injected error for one fsync, if any.
func (d *DiskInjector) Fsync() error {
	if d == nil {
		return nil
	}
	if d.crashed {
		return ErrCrash
	}
	d.fsyncs++
	if d.cfg.FsyncErrRate > 0 && unit(hash64(uint64(d.cfg.Seed), "fsync", uint64(d.fsyncs)), 0) < d.cfg.FsyncErrRate {
		return fmt.Errorf("%w (fsync %d)", ErrFsync, d.fsyncs)
	}
	return nil
}

// Read returns the number of bytes the device may return for a read of n
// bytes: n when clean, less on an injected partial read.
func (d *DiskInjector) Read(n int) int {
	if d == nil || n <= 1 {
		return n
	}
	d.reads++
	h := hash64(uint64(d.cfg.Seed), "read", uint64(d.reads))
	if d.cfg.PartialReadRate > 0 && unit(h, 0) < d.cfg.PartialReadRate {
		// Short by at least one byte; the exact cut is seeded too.
		cut := 1 + int(unit(h, 1)*float64(n-1))
		if cut >= n {
			cut = n - 1
		}
		return cut
	}
	return n
}
