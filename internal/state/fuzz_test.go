package state_test

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"repro/internal/check"
	"repro/internal/sim"
	"repro/internal/state"
)

// fuzzFamilies is the deterministic family order the fuzzer indexes into
// (builders() is a map, so its iteration order cannot seed a corpus).
func fuzzFamilies() []string {
	m := builders()
	names := make([]string, 0, len(m))
	for name := range m { //lint:sorted collected then sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FuzzStateRoundTrip drives the snapshot format from both sides. The happy
// path: train a randomly chosen family on a random record prefix, snapshot,
// restore into a fresh predictor, and require the restored engine to be
// indistinguishable — re-snapshot bytes, per-dispatch predictions over a
// continuation, and final snapshots all identical — and require SizeOf,
// which runs the same walk in the counting mode, to equal the snapshot's
// length. The adversarial path:
// single-byte corruption and truncation of the same snapshot must yield the
// typed ErrCorrupt/ErrMismatch, never a panic and never an untyped error.
func FuzzStateRoundTrip(f *testing.F) {
	fams := fuzzFamilies()
	f.Add(uint8(0), uint64(1), uint16(50), uint32(0), byte(0))
	f.Add(uint8(3), uint64(0xBEEF), uint16(400), uint32(17), byte(0x41))
	f.Add(uint8(7), uint64(42), uint16(1), uint32(9999), byte(0xFF))
	f.Add(uint8(11), uint64(0x57A7E), uint16(250), uint32(4), byte(1))
	f.Fuzz(func(t *testing.T, famIdx uint8, seed uint64, n uint16, mutPos uint32, mutVal byte) {
		fam := fams[int(famIdx)%len(fams)]
		build := builders()[fam]
		prefix := check.RandomRecords(seed, 1+int(n)%500)
		tail := check.RandomRecords(seed^0x9E3779B9, 200)

		src := sim.New(build())
		src.ProcessAll(prefix)
		snap := append([]byte(nil), state.SaveBytes(src)...)
		if got := state.SizeOf(src); got != len(snap) {
			t.Fatalf("%s: SizeOf = %d, len(Save) = %d", fam, got, len(snap))
		}

		restored := sim.New(build())
		if err := state.LoadBytes(restored, snap); err != nil {
			t.Fatalf("%s: restore of a fresh snapshot: %v", fam, err)
		}
		if got := state.SaveBytes(restored); !bytes.Equal(got, snap) {
			t.Fatalf("%s: restored re-snapshot differs: %d vs %d bytes", fam, len(got), len(snap))
		}
		for i, rec := range tail {
			a, adisp := src.ProcessPredicted(rec)
			b, bdisp := restored.ProcessPredicted(rec)
			if adisp != bdisp || a != b {
				t.Fatalf("%s: continuation record %d: original %+v/%v vs restored %+v/%v",
					fam, i, a, adisp, b, bdisp)
			}
		}
		if !bytes.Equal(state.SaveBytes(src), state.SaveBytes(restored)) {
			t.Fatalf("%s: final snapshots diverged after continuation", fam)
		}

		// Adversarial side: every mutation must fail typed or (for a no-op
		// XOR) behave exactly like the pristine bytes — and never panic.
		if mutVal != 0 {
			mut := append([]byte(nil), snap...)
			mut[int(mutPos)%len(mut)] ^= mutVal
			if err := state.LoadBytes(sim.New(build()), mut); err != nil &&
				!errors.Is(err, state.ErrCorrupt) && !errors.Is(err, state.ErrMismatch) {
				t.Fatalf("%s: flip at %d: untyped error %v", fam, int(mutPos)%len(mut), err)
			}
		}
		if cut := int(mutPos) % len(snap); cut < len(snap) {
			err := state.LoadBytes(sim.New(build()), snap[:cut])
			if err == nil {
				t.Fatalf("%s: truncation to %d bytes accepted", fam, cut)
			}
			if !errors.Is(err, state.ErrCorrupt) && !errors.Is(err, state.ErrMismatch) {
				t.Fatalf("%s: truncation to %d bytes: untyped error %v", fam, cut, err)
			}
		}
	})
}
