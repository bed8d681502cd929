package state_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/state"
)

// section is one framed snapshot section: its registry id and payload.
type section struct {
	id      uint64
	payload []byte
}

// splitSections parses a snapshot's framing; it trusts its input, which
// comes from Save.
func splitSections(snap []byte) []section {
	var secs []section
	for pos := 5; pos < len(snap); {
		id, n := binary.Uvarint(snap[pos:])
		pos += n
		length := int(binary.LittleEndian.Uint32(snap[pos:]))
		pos += 4
		secs = append(secs, section{id, append([]byte(nil), snap[pos:pos+length]...)})
		pos += length + 4
	}
	return secs
}

// castagnoli is the section CRC's polynomial table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// joinSections frames sections into a snapshot with valid CRCs.
func joinSections(secs []section) []byte {
	out := []byte("PPMS\x02")
	for _, s := range secs {
		out = binary.AppendUvarint(out, s.id)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.payload)))
		out = append(out, s.payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.payload, castagnoli))
	}
	return out
}

// skipFields returns the offset past the leading fields of a payload, one
// per kind letter: 'b' for a single byte, 'v' for a varint.
func skipFields(payload []byte, kinds string) int {
	pos := 0
	for _, k := range kinds {
		if k == 'b' {
			pos++
		} else {
			_, n := binary.Uvarint(payload[pos:])
			pos += n
		}
	}
	return pos
}

// TestLoadRejectsCraftedSections loads CRC-valid snapshots of fresh
// predictors whose first table entry is replaced by a crafted valid entry.
// An entry no run can reach must fail with ErrCorrupt; its in-range twin
// must load and re-save to the crafted bytes, which shows the crafting
// itself is sound.
func TestLoadRejectsCraftedSections(t *testing.T) {
	cascade := func() state.Snapshotter { p, _ := bench.NewPredictor("Cascade"); return p.(state.Snapshotter) }
	multi := func() state.Snapshotter { return core.NewMultiTarget(10, 4) }
	hyb := func() state.Snapshotter { return core.PaperHyb() }
	filtered := func() state.Snapshotter { return core.PaperFiltered() }
	targetCache := func() state.Snapshotter { p, _ := bench.NewPredictor("TC-PIB"); return p.(state.Snapshotter) }
	gap := func() state.Snapshotter { p, _ := bench.NewPredictor("GAp"); return p.(state.Snapshotter) }
	cases := []struct {
		name  string
		build func() state.Snapshotter
		sec   uint64
		head  string   // fingerprint fields before the first entry
		entry []uint64 // the crafted entry, one varint per field
		want  error    // nil: the crafted snapshot is a reachable state
	}{
		// valid, poly, tag, target, hysteresis
		{"cascade filter tag of 24 bits", cascade, state.SecCascade, "bv", []uint64{1, 0, 1<<24 - 1, 0x4000, 1}, nil},
		{"cascade filter tag of 25 bits", cascade, state.SecCascade, "bv", []uint64{1, 0, 1 << 24, 0x4000, 1}, state.ErrCorrupt},
		{"cascade filter tag of 41 bits", cascade, state.SecCascade, "bv", []uint64{1, 0, 1 << 40, 0x4000, 1}, state.ErrCorrupt},
		{"cascade filter hysteresis of 4", cascade, state.SecCascade, "bv", []uint64{1, 0, 7, 0x4000, 4}, state.ErrCorrupt},
		// valid, arcs, then target and count per arc
		{"multi-target count at saturation", multi, state.SecMultiMarkov, "vv", []uint64{1, 1, 0x4000, 15}, nil},
		{"multi-target count past saturation", multi, state.SecMultiMarkov, "vv", []uint64{1, 1, 0x4000, 16}, state.ErrCorrupt},
		{"multi-target arcs over k", multi, state.SecMultiMarkov, "vv", []uint64{1, 5, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1}, state.ErrCorrupt},
		// valid, tag, target, hysteresis
		{"filtered PPM tag of 24 bits", filtered, state.SecFiltered, "v", []uint64{1, 1<<24 - 1, 0x4000, 1}, nil},
		{"filtered PPM tag of 25 bits", filtered, state.SecFiltered, "v", []uint64{1, 1 << 24, 0x4000, 1}, state.ErrCorrupt},
		{"markov tag of 32 bits", hyb, state.SecMarkov, "vb", []uint64{1, 1<<32 - 1, 0x4000, 1}, nil},
		{"markov tag of 33 bits", hyb, state.SecMarkov, "vb", []uint64{1, 1 << 32, 0x4000, 1}, state.ErrCorrupt},
		// valid, tag, target
		{"target cache tag of 24 bits", targetCache, state.SecTargetCache, "vvvbb", []uint64{1, 1<<24 - 1, 0x4000}, nil},
		{"target cache tag of 25 bits", targetCache, state.SecTargetCache, "vvvbb", []uint64{1, 1 << 24, 0x4000}, state.ErrCorrupt},
		// valid, tag, target, hysteresis, LRU stamp
		{"GAp PHT tag of 24 bits", gap, state.SecPHT, "vvbbv", []uint64{1, 1<<24 - 1, 0x4000, 1, 0}, nil},
		{"GAp PHT tag of 25 bits", gap, state.SecPHT, "vvbbv", []uint64{1, 1 << 24, 0x4000, 1, 0}, state.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			secs := splitSections(state.SaveBytes(tc.build()))
			i := 0
			for i < len(secs) && secs[i].id != tc.sec {
				i++
			}
			if i == len(secs) {
				t.Fatalf("no section %d in a fresh snapshot", tc.sec)
			}
			p := secs[i].payload
			at := skipFields(p, tc.head)
			if p[at] != 0 {
				t.Fatalf("section %d: first entry byte %d, want an invalid entry", tc.sec, p[at])
			}
			var entry []byte
			for _, v := range tc.entry {
				entry = binary.AppendUvarint(entry, v)
			}
			secs[i].payload = append(append(append([]byte(nil), p[:at]...), entry...), p[at+1:]...)
			crafted := joinSections(secs)

			dst := tc.build()
			err := state.LoadBytes(dst, crafted)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				if got := state.SaveBytes(dst); !bytes.Equal(got, crafted) {
					t.Fatalf("re-save differs from the crafted snapshot: %d vs %d bytes", len(got), len(crafted))
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("load: got %v, want %v", err, tc.want)
			}
		})
	}
}
