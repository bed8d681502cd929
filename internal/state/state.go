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
// detects corruption independently. Payload values are unsigned LEB128
// varints (U64, U32, Int) or single bytes (U8Max, Bool — Bool strictly 0
// or 1, keeping re-encoding byte-identical). Section ids are a
// package-level registry (Sec*), one per component type; a component
// always walks its configuration fingerprint first, so loading into a
// predictor built from a different configuration fails with ErrMismatch
// instead of silently misinterpreting table entries.
//
// Sections never nest. Composite predictors concatenate their components'
// sections in a fixed order — a DualPath snapshot is its selector section
// followed by the short and long GAp snapshots.
//
// # One walk, three modes
//
// Each component states its layout once, in its Walk method (see
// Snapshotter), and Save, SizeOf and Load all run that walk through a
// Codec: encoding appends each field, counting adds up the bytes encoding
// would append, and decoding reads each field, checks it and stores it.
// The fingerprint and range checks live in the walk's field calls (Match,
// U64Max, U8Max, Int), so the encoder, the size count and the decoder
// cannot drift apart.
//
// # Round-trip guarantees
//
// Save is deterministic: saving the same logical predictor state twice
// yields identical bytes (map-backed structures serialize in insertion
// order, never map order). Load rebuilds state in place into an
// identically-configured predictor, reusing its backing arrays, so a load
// followed by a save reproduces the input bytes exactly and the
// steady-state save/load cycle does not allocate. Save and SizeOf only
// read the predictor.
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
// framing, CRC mismatch, or out-of-range values. Errors returned by Load
// wrap ErrCorrupt with detail; test with errors.Is.
var ErrCorrupt = errors.New("state: corrupt snapshot")

// ErrMismatch reports a structurally valid snapshot whose format version or
// configuration fingerprint does not match the predictor it is being
// loaded into.
var ErrMismatch = errors.New("state: snapshot does not match predictor configuration")

// Snapshotter is implemented by every predictor (and predictor component)
// whose state can be captured and rebuilt. Walk visits the component's
// snapshot fields in wire order through c, once per Save, SizeOf and Load:
// the one walk is the component's layout. It opens its own sections,
// walks its configuration fingerprint first (Match), bounds every
// range-limited field where it is visited, and walks its components after
// its own sections. A walk stores through its fields only when decoding,
// rebuilding state in place into the receiver's existing backing storage,
// and branches on c.Loading only where the in-memory form differs from the
// wire form. A predictor is only snapshotted at a record boundary (after
// Update and Observe, before the next Predict), so transient per-prediction
// scratch is never encoded.
type Snapshotter interface {
	Walk(c *Codec)
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

// Save serializes s into w and returns the snapshot bytes. The returned
// slice aliases the writer's buffer and is valid until the writer's next
// use; callers that outlive that must copy.
func Save(s Snapshotter, w *Writer) []byte {
	c := &w.c
	*c = Codec{mode: encoding, buf: append(append(c.buf[:0], magic...), Version)}
	s.Walk(c)
	return c.buf
}

// SaveBytes is Save with a throwaway writer, for tools and tests.
func SaveBytes(s Snapshotter) []byte {
	var w Writer
	return Save(s, &w)
}

// Load restores s from snapshot bytes using r as the decoding cursor. The
// whole input must be consumed: trailing bytes are corruption.
func Load(s Snapshotter, r *Reader, data []byte) error {
	c := &r.c
	*c = Codec{mode: decoding, buf: data, pos: len(magic) + 1, mark: len(magic) + 1}
	switch {
	case len(data) < len(magic)+1:
		return fmt.Errorf("%w: short header: %d bytes", ErrCorrupt, len(data))
	case string(data[:len(magic)]) != magic:
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(magic)])
	case data[len(magic)] != Version:
		return fmt.Errorf("%w: snapshot format version %d, this build reads version %d",
			ErrMismatch, data[len(magic)], Version)
	}
	s.Walk(c)
	if c.err != nil {
		return c.err
	}
	if c.pos != len(data) {
		return fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(data)-c.pos)
	}
	return nil
}

// LoadBytes is Load with a throwaway reader, for tools and tests.
func LoadBytes(s Snapshotter, data []byte) error {
	var r Reader
	return Load(s, &r, data)
}

// SizeOf returns the serialized size of s in bytes — the live-state cost a
// session accounts against its memory budget. It runs s's Walk in the
// counting mode, which adds up what Save would write without writing it or
// computing a CRC, so the count is exact and needs no buffer. The counting
// codecs are pooled, so steady-state calls do not allocate.
func SizeOf(s Snapshotter) int {
	c := counters.Get().(*Codec)
	*c = Codec{mode: counting, n: len(magic) + 1}
	s.Walk(c)
	n := c.n
	counters.Put(c)
	return n
}

// counters backs SizeOf.
var counters = sync.Pool{New: func() any { return new(Codec) }}
