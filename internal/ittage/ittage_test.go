package ittage

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/history"
	"repro/internal/state"
	"repro/internal/trace"
)

func mt(pc, target uint64) trace.Record {
	return trace.Record{PC: pc, Target: target, Class: trace.IndirectJmp, Taken: true, MT: true}
}

// step runs one record through the engine protocol: predict+update for
// MT-indirect records, then observe. Returns whether the prediction was
// attempted and correct.
func step(p *ITTAGE, r trace.Record) (predicted, correct bool) {
	if r.MTIndirect() {
		target, ok := p.Predict(r.PC)
		predicted = ok
		correct = ok && target == r.Target
		p.Update(r.PC, r.Target)
	}
	p.Observe(r)
	return
}

func TestPaperBudget(t *testing.T) {
	p := Paper()
	if got := p.Entries(); got != 2048 {
		t.Fatalf("Entries = %d, want 2048 (the paper's predictor budget)", got)
	}
	lens := p.HistLens()
	want := []int{4, 10, 25, 64}
	if len(lens) != len(want) {
		t.Fatalf("HistLens = %v", lens)
	}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("HistLens = %v, want %v", lens, want)
		}
	}
	if p.Bits() <= 0 {
		t.Fatal("Bits must be positive")
	}
	// The longest window packs 64 items x 2 bits = 128 history bits: the
	// geometry that used to be silently truncated at 64.
	if got := p.hist.PackedBits(); got != 128 {
		t.Fatalf("history register width = %d, want 128", got)
	}
}

func TestLearnsMonomorphicBranch(t *testing.T) {
	p := Paper()
	hits := 0
	for i := 0; i < 50; i++ {
		_, c := step(p, mt(0x4000, 0x9000))
		if c {
			hits++
		}
	}
	if hits < 48 {
		t.Fatalf("monomorphic branch predicted %d/50", hits)
	}
}

// TestDeepHistoryCorrelationIsLive is the end-to-end regression for the PHR
// 64-bit clamp: a branch whose target is determined solely by a marker 41
// history items deep — packed bits 82..83, reachable only through the
// multi-word register — must be predictable by the 64-item bank, and must
// NOT be predictable by an otherwise identical predictor whose longest
// window stops at 32 items.
func TestDeepHistoryCorrelationIsLive(t *testing.T) {
	run := func(maxHist int) (correct, total int) {
		p := New(Config{
			Name:        "deep",
			BaseEntries: 1024,
			Banks:       4,
			BankEntries: 256,
			TagBits:     10,
			MinHist:     4,
			MaxHist:     maxHist,
			BitsPerItem: 2,
			ResetPeriod: 2048,
			Stream:      Paper().hist.Stream(),
		})
		const rounds = 400
		for round := 0; round < rounds; round++ {
			marker := uint64(0x100 + 4*uint64(round%2)) // alternates two targets
			step(p, mt(0x8000, marker))
			for f := 0; f < 40; f++ { // 40 fixed fillers push the marker 41 deep
				step(p, mt(0xA000+uint64(f)*4, 0xC000+uint64(f)*4))
			}
			// The observed branch: its target is the marker's low alternation.
			_, c := step(p, mt(0x8800, 0xE000+4*uint64(round%2)))
			if round >= rounds/2 {
				total++
				if c {
					correct++
				}
			}
		}
		return
	}
	wideCorrect, total := run(64)
	narrowCorrect, _ := run(32)
	if wideCorrect*10 < total*8 {
		t.Fatalf("64-item bank predicted %d/%d; deep history is not reaching the index", wideCorrect, total)
	}
	if narrowCorrect*10 > total*7 {
		t.Fatalf("32-item control predicted %d/%d; the correlation leaks through a short window, test is not probing >64 bits", narrowCorrect, total)
	}
}

func TestSnapshotRoundTripAndContinuation(t *testing.T) {
	a := Paper()
	for i := 0; i < 3000; i++ {
		pc := 0x4000 + uint64(i%17)*4
		tgt := 0x9000 + uint64((i*i)%5)*4
		step(a, mt(pc, tgt))
	}
	snap := append([]byte(nil), state.SaveBytes(a)...)
	b := Paper()
	if err := state.LoadBytes(b, snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := state.SaveBytes(b); !bytes.Equal(got, snap) {
		t.Fatal("re-snapshot is not byte-identical")
	}
	// Continuation equality: the restored predictor must behave exactly
	// like the original from here on.
	for i := 0; i < 2000; i++ {
		pc := 0x4000 + uint64(i%23)*4
		tgt := 0x9000 + uint64((i*7)%6)*4
		ta, oka := a.Predict(pc)
		tb, okb := b.Predict(pc)
		if ta != tb || oka != okb {
			t.Fatalf("step %d: predictions diverged after restore: (%#x,%v) vs (%#x,%v)", i, ta, oka, tb, okb)
		}
		a.Update(pc, tgt)
		b.Update(pc, tgt)
		a.Observe(mt(pc, tgt))
		b.Observe(mt(pc, tgt))
	}
	if ga, gb := state.SaveBytes(a), state.SaveBytes(b); !bytes.Equal(ga, gb) {
		t.Fatal("continued snapshots diverged")
	}
}

func TestSnapshotMismatch(t *testing.T) {
	a := Paper()
	snap := append([]byte(nil), state.SaveBytes(a)...)
	other := New(Config{
		Name: "small", BaseEntries: 512, Banks: 4, BankEntries: 256,
		TagBits: 10, MinHist: 4, MaxHist: 64, BitsPerItem: 2,
		ResetPeriod: 2048, Stream: Paper().hist.Stream(),
	})
	if err := state.LoadBytes(other, snap); !errors.Is(err, state.ErrMismatch) {
		t.Fatalf("mismatched geometry: got %v, want ErrMismatch", err)
	}
}

func TestResetRestoresPowerUp(t *testing.T) {
	p := Paper()
	virgin := append([]byte(nil), state.SaveBytes(Paper())...)
	for i := 0; i < 500; i++ {
		step(p, mt(0x4000+uint64(i%7)*4, 0x9000+uint64(i%3)*4))
	}
	p.Reset()
	if got := state.SaveBytes(p); !bytes.Equal(got, virgin) {
		t.Fatal("Reset does not restore the power-up snapshot")
	}
}

func TestUseAltOnNewlyAllocated(t *testing.T) {
	p := Paper()
	// Train a stable base prediction, then force churn that allocates new
	// tagged entries; the use-alt counter must stay within range and the
	// predictor must keep functioning.
	for i := 0; i < 2000; i++ {
		pc := 0x4000 + uint64(i%31)*4
		step(p, mt(pc, 0x9000+uint64(i%13)*4))
	}
	uaona, _ := p.UStats()
	if uaona > uaonaMax {
		t.Fatalf("use-alt counter %d out of range", uaona)
	}
}

func TestGracefulResetRuns(t *testing.T) {
	p := New(Config{
		Name: "r", BaseEntries: 64, Banks: 2, BankEntries: 32,
		TagBits: 8, MinHist: 2, MaxHist: 8, BitsPerItem: 2,
		ResetPeriod: 64, Stream: Paper().hist.Stream(),
	})
	for i := 0; i < 1000; i++ {
		step(p, mt(0x4000+uint64(i%41)*4, 0x9000+uint64(i%17)*4))
	}
	if _, resets := p.UStats(); resets == 0 {
		t.Fatal("graceful reset never ran")
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{
		Name: "x", BaseEntries: 64, Banks: 2, BankEntries: 32,
		TagBits: 8, MinHist: 2, MaxHist: 8, BitsPerItem: 2,
		Stream: history.MTIndirectBranches,
	}
	bad := []func(Config) Config{
		func(c Config) Config { c.BaseEntries = 48; return c },
		func(c Config) Config { c.BankEntries = 0; return c },
		func(c Config) Config { c.Banks = 1; return c },
		func(c Config) Config { c.TagBits = 1; return c },
		func(c Config) Config { c.MinHist = 0; return c },
		func(c Config) Config { c.MaxHist = 2; return c },
		func(c Config) Config { c.BitsPerItem = 0; return c },
	}
	for i, mut := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad config %d did not panic", i)
				}
			}()
			New(mut(base))
		}()
	}
}
