// Package state implements the predictor-state snapshot subsystem: a
// compact, versioned binary format with byte-identical round-trip
// guarantees, used for live prediction sessions (internal/serve), warm-start
// simulation (cmd/experiments -warmstart) and the snapshot-at-every-cut
// differential checks (internal/check).
//
// # Format
//
// A snapshot is a 5-byte header followed by a flat sequence of sections:
//
//	snapshot := magic version section*
//	magic    := "PPMS"                        (4 bytes)
//	version  := 0x02                          (1 byte)
//	section  := id:uvarint len:u32le payload crc:u32le
//
// The CRC is CRC-32C (Castagnoli) over the payload bytes, so every section
// detects corruption independently. Payload values are varint-coded: U64 is
// an unsigned LEB128 varint, I64 its zigzag form, U8/Bool single bytes
// (Bool strictly 0 or 1, keeping re-encoding byte-identical). Section ids
// are a package-level registry (Sec*), one per component type; a component
// always writes its configuration fingerprint first, so Restore into a
// predictor built from a different configuration fails with ErrMismatch
// instead of silently misinterpreting table entries.
//
// Sections never nest. Composite predictors concatenate their components'
// sections in a fixed order — a DualPath snapshot is its selector section
// followed by the short and long GAp snapshots — and Restore consumes them
// in the same order.
//
// # Round-trip guarantees
//
// Snapshot is deterministic: snapshotting the same logical predictor state
// twice yields identical bytes (map-backed structures serialize in
// insertion order, never map order). Restore rebuilds state in place into
// an identically-configured predictor, reusing its backing arrays, so a
// restore followed by a snapshot reproduces the input bytes exactly and the
// steady-state snapshot/restore cycle does not allocate.
package state

import (
	"errors"
	"fmt"
	"sync"
)

// Version is the current snapshot format version, written after the magic.
// Any change to a section's layout bumps it. Version 2 added the PHT's
// useful counters (the u-reset period and per-entry u bits) to SecPHT.
const Version = 2

// magic identifies a predictor-state snapshot.
const magic = "PPMS"

// ErrCorrupt reports malformed snapshot bytes: bad magic, truncated
// framing, CRC mismatch, or out-of-range values. Errors returned
// by Restore wrap ErrCorrupt with detail; test with errors.Is.
var ErrCorrupt = errors.New("state: corrupt snapshot")

// ErrMismatch reports a structurally valid snapshot whose format version or
// configuration fingerprint does not match the predictor it is being
// restored into.
var ErrMismatch = errors.New("state: snapshot does not match predictor configuration")

// corruptf wraps ErrCorrupt with formatted detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// mismatchf wraps ErrMismatch with formatted detail.
func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrMismatch}, args...)...)
}

// Mismatchf builds an ErrMismatch with formatted detail, for component
// Restore implementations validating their configuration fingerprints.
func Mismatchf(format string, args ...any) error { return mismatchf(format, args...) }

// Corruptf builds an ErrCorrupt with formatted detail, for component
// Restore implementations validating decoded values.
func Corruptf(format string, args ...any) error { return corruptf(format, args...) }

// Snapshotter is implemented by every predictor (and predictor component)
// whose state can be captured and rebuilt. Snapshot appends the component's
// sections to w; Restore consumes the same sections from r, rebuilding
// state in place into the receiver's existing backing storage, and reports
// ErrCorrupt/ErrMismatch wrapped errors on invalid input. A predictor is
// only snapshotted at a record boundary (after Update and Observe, before
// the next Predict), so transient per-prediction scratch is never encoded.
type Snapshotter interface {
	Snapshot(w *Writer)
	Restore(r *Reader) error
}

// Section ids, one per component type. The registry is centralized so the
// on-wire ids stay unique across packages and the format spec in
// internal/README.md can enumerate them.
const (
	SecMarkov      uint64 = 1  // core.MarkovTable
	SecPHR         uint64 = 2  // history.PHR
	SecBIU         uint64 = 3  // predictor.BIU
	SecPPM         uint64 = 4  // core.PPM scalar state
	SecBTB         uint64 = 5  // btb.BTB
	SecGAp         uint64 = 6  // twolevel.GAp scalar state
	SecPHT         uint64 = 7  // twolevel.PHT
	SecTargetCache uint64 = 8  // twolevel.TargetCache
	SecDualPath    uint64 = 9  // twolevel.DualPath selectors
	SecCascade     uint64 = 10 // cascade.Cascade filter + stats
	SecRAS         uint64 = 11 // ras.Stack
	SecFiltered    uint64 = 12 // core.FilteredPPM filter + stats
	SecMultiPPM    uint64 = 13 // core.MultiPPM scalar state
	SecMultiMarkov uint64 = 14 // core.MultiMarkovTable
	SecCBT         uint64 = 15 // cbt.CBT
	SecEngine      uint64 = 16 // sim.Engine accounting + counters
	SecITTAGE      uint64 = 17 // ittage.ITTAGE base + tagged banks
)

// Save serializes s into w (resetting it first) and returns the snapshot
// bytes. The returned slice aliases the writer's buffer and is valid until
// the writer's next use; callers that outlive that must copy.
func Save(s Snapshotter, w *Writer) []byte {
	w.Reset()
	w.buf = append(w.buf, magic...)
	w.buf = append(w.buf, Version)
	s.Snapshot(w)
	return w.buf
}

// SaveBytes is Save with a throwaway writer, for tools and tests.
func SaveBytes(s Snapshotter) []byte {
	var w Writer
	return Save(s, &w)
}

// Load restores s from snapshot bytes using r as the decoding cursor. The
// whole input must be consumed: trailing bytes are corruption.
func Load(s Snapshotter, r *Reader, data []byte) error {
	r.reset(data)
	if len(data) < len(magic)+1 {
		return corruptf("short header: %d bytes", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return corruptf("bad magic %q", data[:len(magic)])
	}
	if v := data[len(magic)]; v != Version {
		return mismatchf("snapshot format version %d, this build reads version %d", v, Version)
	}
	r.pos = len(magic) + 1
	if err := s.Restore(r); err != nil {
		return err
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return corruptf("%d trailing bytes after last section", len(r.data)-r.pos)
	}
	return nil
}

// LoadBytes is Load with a throwaway reader, for tools and tests.
func LoadBytes(s Snapshotter, data []byte) error {
	var r Reader
	return Load(s, &r, data)
}

// SizeOf returns the serialized size of s in bytes — the live-state cost a
// session accounts against its memory budget. It runs s's Snapshot through
// a counting writer, which adds up what Save would write without writing
// it or computing a CRC, so the count is exact and needs no buffer. The
// counting writers are pooled, so steady-state calls do not allocate.
func SizeOf(s Snapshotter) int {
	w := counters.Get().(*Writer)
	w.Reset()
	w.n = len(magic) + 1
	s.Snapshot(w)
	n := w.n
	counters.Put(w)
	return n
}

// counters backs SizeOf.
var counters = sync.Pool{New: func() any { return &Writer{lenAt: -1, counting: true} }}
