package state_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cbt"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/state"
)

// builders enumerates every snapshot-capable predictor construction: the
// nine bench families plus the extension variants.
func builders() map[string]func() predictor.IndirectPredictor {
	m := map[string]func() predictor.IndirectPredictor{}
	for _, name := range bench.PredictorNames() {
		name := name
		m[name] = func() predictor.IndirectPredictor {
			p, ok := bench.NewPredictor(name)
			if !ok {
				panic("unknown family " + name)
			}
			return p
		}
	}
	m["PPM-filtered"] = func() predictor.IndirectPredictor { return core.PaperFiltered() }
	m["PPM-multi"] = func() predictor.IndirectPredictor { return core.NewMultiTarget(10, 4) }
	m["CBT"] = func() predictor.IndirectPredictor {
		return cbt.New(cbt.Config{Entries: 2048, Availability: 0.5, Seed: 0xCB7})
	}
	return m
}

// TestRoundTripFamilies pins the tentpole guarantee for every family: run a
// prefix, snapshot, restore into a fresh predictor, continue both over the
// suffix, and require byte-identical end states (which subsumes identical
// predictions — any divergent outcome lands in the serialized counters).
func TestRoundTripFamilies(t *testing.T) {
	recs := check.RandomTrace(0x57A7E, 4000)
	cut := len(recs) / 2
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			cont := sim.New(build())
			cont.ProcessAll(recs[:cut])

			snap := append([]byte(nil), state.SaveBytes(cont)...)
			restored := sim.New(build())
			if err := state.LoadBytes(restored, snap); err != nil {
				t.Fatalf("restore: %v", err)
			}

			// Re-snapshot of the restored engine must reproduce the input.
			if got := state.SaveBytes(restored); !bytes.Equal(got, snap) {
				t.Fatalf("restored re-snapshot differs: %d vs %d bytes", len(got), len(snap))
			}

			cont.ProcessAll(recs[cut:])
			restored.ProcessAll(recs[cut:])
			a, b := state.SaveBytes(cont), state.SaveBytes(restored)
			if !bytes.Equal(a, b) {
				t.Fatalf("continuation diverged after restore: end snapshots %d vs %d bytes", len(a), len(b))
			}
			ca, cb := cont.Counters()[0], restored.Counters()[0]
			if ca != cb {
				t.Fatalf("counters diverged: %+v vs %+v", ca, cb)
			}
		})
	}
}

// TestRestoreIntoWarmPredictor proves restore rebuilds state in place: a
// predictor that has already seen a different trace must be indistinguishable
// from a cold restore after loading the same snapshot.
func TestRestoreIntoWarmPredictor(t *testing.T) {
	recs := check.RandomTrace(0xBEEF, 3000)
	other := check.RandomTrace(0xF00D, 3000)
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			src := sim.New(build())
			src.ProcessAll(recs)
			snap := append([]byte(nil), state.SaveBytes(src)...)

			warm := sim.New(build())
			warm.ProcessAll(other) // pre-existing state the restore must fully displace
			if err := state.LoadBytes(warm, snap); err != nil {
				t.Fatalf("restore into warm predictor: %v", err)
			}
			if got := state.SaveBytes(warm); !bytes.Equal(got, snap) {
				t.Fatalf("warm restore left residue: re-snapshot %d vs %d bytes", len(got), len(snap))
			}
		})
	}
}

// TestRestoreMismatch requires a typed ErrMismatch when a snapshot is
// loaded into a differently-configured predictor.
func TestRestoreMismatch(t *testing.T) {
	hyb := core.PaperHyb()
	snap := state.SaveBytes(hyb)
	if err := state.LoadBytes(core.PaperPIB(), snap); !errors.Is(err, state.ErrMismatch) {
		t.Fatalf("cross-mode restore: got %v, want ErrMismatch", err)
	}
	if err := state.LoadBytes(core.PaperHybBiased(), snap); !errors.Is(err, state.ErrMismatch) {
		t.Fatalf("cross-mode restore: got %v, want ErrMismatch", err)
	}
}

// TestCorruptSnapshots requires typed errors — never a panic — for every
// single-byte corruption and every truncation of a real snapshot.
func TestCorruptSnapshots(t *testing.T) {
	e := sim.New(core.PaperHyb())
	e.ProcessAll(check.RandomTrace(0xC0DE, 1500))
	snap := append([]byte(nil), state.SaveBytes(e)...)

	check1 := func(data []byte, what string) {
		t.Helper()
		fresh := sim.New(core.PaperHyb())
		err := state.LoadBytes(fresh, data)
		if err == nil {
			t.Fatalf("%s: corruption accepted", what)
		}
		if !errors.Is(err, state.ErrCorrupt) && !errors.Is(err, state.ErrMismatch) {
			t.Fatalf("%s: untyped error %v", what, err)
		}
	}

	for i := 0; i < len(snap); i += 37 { // stride keeps the sweep fast but hits every region
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0x41
		fresh := sim.New(core.PaperHyb())
		if err := state.LoadBytes(fresh, mut); err != nil &&
			!errors.Is(err, state.ErrCorrupt) && !errors.Is(err, state.ErrMismatch) {
			t.Fatalf("flip at %d: untyped error %v", i, err)
		}
		// A flip inside a payload is caught by the section CRC; flips in
		// the CRC itself or the framing are caught by framing checks. Either
		// way no flip may be silently accepted AND corrupt later sections.
	}
	for _, n := range []int{0, 3, 4, 5, len(snap) / 3, len(snap) - 1} {
		check1(snap[:n], "truncation")
	}
	check1(append(append([]byte(nil), snap...), 0xFF), "trailing byte")
	check1([]byte("XXXX\x01"), "bad magic")
	check1([]byte("PPMS\x03"), "bad version")
}

// TestLoadRejectsOtherVersions requires a snapshot written under another
// format version — version 1 predates the PHT useful counters — to fail as
// a typed ErrMismatch naming both versions, never to parse against the
// current layout.
func TestLoadRejectsOtherVersions(t *testing.T) {
	e := sim.New(core.PaperHyb())
	e.ProcessAll(check.RandomTrace(0xC0DE, 500))
	snap := append([]byte(nil), state.SaveBytes(e)...)
	for _, v := range []byte{1, state.Version + 1} {
		old := append([]byte(nil), snap...)
		old[4] = v
		err := state.LoadBytes(sim.New(core.PaperHyb()), old)
		if !errors.Is(err, state.ErrMismatch) {
			t.Fatalf("version %d: got %v, want ErrMismatch", v, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", v)) ||
			!strings.Contains(msg, fmt.Sprintf("version %d", state.Version)) {
			t.Errorf("version %d: error %q does not name both versions", v, msg)
		}
	}
}

// TestSizeOf sanity-checks the budget-accounting helper: positive, stable
// across calls, and equal to the serialized length.
func TestSizeOf(t *testing.T) {
	p := core.PaperHyb()
	e := sim.New(p)
	e.ProcessAll(check.RandomTrace(1, 2000))
	want := len(state.SaveBytes(p))
	if got := state.SizeOf(p); got != want || got == 0 {
		t.Fatalf("SizeOf = %d, want %d (non-zero)", got, want)
	}
	if again := state.SizeOf(p); again != want {
		t.Fatalf("SizeOf unstable: %d then %d", want, again)
	}
}

// TestSnapshotDeterministic requires repeated snapshots of one state to be
// byte-identical — the property that lets serve hash or dedupe session
// state and lets the checks compare snapshots directly.
func TestSnapshotDeterministic(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			e := sim.New(build())
			e.ProcessAll(check.RandomTrace(0xD0, 2500))
			a := append([]byte(nil), state.SaveBytes(e)...)
			if b := state.SaveBytes(e); !bytes.Equal(a, b) {
				t.Fatalf("snapshot not deterministic: %d vs %d bytes", len(a), len(b))
			}
		})
	}
}

// TestSaveAndSizeOfOnlyRead saves and counts one trained engine of every
// family from two goroutines at once. Only Load may store through a walk's
// fields, so under the race detector (make race) a store made while
// encoding or counting fails the test; without it both goroutines must
// still see the serial snapshot and its size.
func TestSaveAndSizeOfOnlyRead(t *testing.T) {
	recs := check.RandomTrace(0x5AFE, 2000)
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			e := sim.New(build())
			e.ProcessAll(recs)
			want := append([]byte(nil), state.SaveBytes(e)...)
			var wg sync.WaitGroup
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got := state.SaveBytes(e); !bytes.Equal(got, want) {
						t.Errorf("concurrent Save: %d bytes, serial %d", len(got), len(want))
					}
					if n := state.SizeOf(e); n != len(want) {
						t.Errorf("concurrent SizeOf = %d, len(Save) = %d", n, len(want))
					}
				}()
			}
			wg.Wait()
		})
	}
}
