package core

import (
	"testing"

	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/state"
	"repro/internal/trace"
)

// checkRing fails unless the ring's window opens with the SFSXS folds of
// the register's recorded targets, most recent first, then zeros.
func checkRing(t *testing.T, what string, p *PPM, r *foldRing, phr *history.PHR) {
	t.Helper()
	recent := phr.Recent(nil, p.cfg.Order)
	w := r.window()
	for i := range p.cfg.Order {
		var want uint64
		if i < len(recent) {
			want = hashing.Fold(recent[i]>>2, p.cfg.TargetBits, p.cfg.FoldBits)
		}
		if w[i] != want {
			t.Fatalf("%s fold %d = %#x, want %#x", what, i, w[i], want)
		}
	}
}

// TestFoldRingsMirrorRegisters drives every mode through a mixed record
// stream, by Observe and by ProcessBlock, and holds each fold ring to its
// register after every step, across a snapshot round trip into a fresh
// predictor, and after Reset. PPM-PIB keeps no PB ring.
func TestFoldRingsMirrorRegisters(t *testing.T) {
	classes := []trace.Class{trace.CondDirect, trace.IndirectJmp, trace.IndirectJsr, trace.Return, trace.UncondDirect}
	for _, mode := range []Mode{PIBOnly, Hybrid, HybridBiased} {
		for _, order := range []int{1, 10, 20} {
			cfg := Config{Order: order, TargetBits: 10, FoldBits: 5, Mode: mode}
			p := New(cfg)
			if (p.pbFolds == nil) != (mode == PIBOnly) {
				t.Fatalf("%v: PB fold ring kept = %t", mode, p.pbFolds != nil)
			}
			check := func(p *PPM, when string) {
				t.Helper()
				if p.pbFolds != nil {
					checkRing(t, mode.String()+" PB "+when, p, p.pbFolds, p.pb)
				}
				checkRing(t, mode.String()+" PIB "+when, p, p.pibFolds, p.pib)
			}
			rng := uint64(uint64(order)<<8 | uint64(mode))
			next := func() uint64 { rng = hashing.Mix64(rng + 1); return rng }
			var recs []trace.Record
			for range 3 * foldRingCap {
				v := next()
				r := trace.Record{PC: v >> 40 << 2, Target: v, Class: classes[v%uint64(len(classes))], Taken: true}
				r.MT = r.PIBStream() && v&8 != 0
				recs = append(recs, r)
			}
			for i, r := range recs {
				if r.MT {
					p.Predict(r.PC)
					p.Update(r.PC, r.Target)
				}
				p.Observe(r)
				check(p, "after Observe")
				if i == order/2 {
					q := New(cfg)
					if err := state.LoadBytes(q, state.SaveBytes(p)); err != nil {
						t.Fatal(err)
					}
					check(q, "after warm-up load")
				}
			}
			q := New(cfg)
			if err := state.LoadBytes(q, state.SaveBytes(p)); err != nil {
				t.Fatal(err)
			}
			check(q, "after load")
			for _, b := range trace.BlocksSized(recs, 7) {
				q.ProcessBlock(&b, make([]predictor.Prediction, b.Len()))
				check(q, "after ProcessBlock")
			}
			q.Reset()
			check(q, "after Reset")
		}
	}
}
