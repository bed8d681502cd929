package check

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestDifferentialBoundedBIU holds the finite-BIU configurations, which the
// bench families never run, against RefPPM's FIFO map: record-engine
// predictions in lock-step, then the block engine's end state — counters,
// BIU population, eviction count and every live entry's MT bit and
// selection state — against the reference after the same records.
func TestDifferentialBoundedBIU(t *testing.T) {
	for _, limit := range []int{1, 2, 16} {
		var evictions uint64
		for _, mode := range []core.Mode{core.Hybrid, core.HybridBiased} {
			cfg := core.DefaultConfig(mode)
			cfg.BIULimit = limit
			for seed := uint64(1); seed <= quickSeeds; seed++ {
				for _, in := range streams(seed, quickEvents) {
					name := fmt.Sprintf("%v limit %d %s seed %d", mode, limit, in.kind, seed)
					rec, ref := core.New(cfg), NewRefPPM(cfg)
					if err := diffPair(rec, ref, in.recs); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := sameBIU(rec, ref); err != nil {
						t.Fatalf("%s, record engine: %v", name, err)
					}
					blk := core.New(cfg)
					blkEng := sim.New(blk)
					blkEng.ProcessBlocks(trace.BlocksSized(in.recs, 64))
					refEng := sim.New(NewRefPPM(cfg))
					refEng.ProcessAll(in.recs)
					if got, want := blkEng.Counters()[0], refEng.Counters()[0]; got != want {
						t.Fatalf("%s, block engine: counters %+v, reference %+v", name, got, want)
					}
					if err := sameBIU(blk, ref); err != nil {
						t.Fatalf("%s, block engine: %v", name, err)
					}
					evictions += ref.evictions
				}
			}
		}
		if evictions == 0 {
			t.Errorf("limit %d: no input evicted a BIU entry", limit)
		}
	}
}

// sameBIU compares an optimized PPM's BIU with the reference's.
func sameBIU(p *core.PPM, ref *RefPPM) error {
	b := p.BIU()
	if b.Len() != len(ref.biuFIFO) || b.Evictions() != ref.evictions {
		return fmt.Errorf("BIU holds %d entries after %d evictions, reference %d after %d",
			b.Len(), b.Evictions(), len(ref.biuFIFO), ref.evictions)
	}
	for _, pc := range ref.biuFIFO {
		want := ref.biu[pc]
		e := b.Lookup(pc)
		if e == nil {
			return fmt.Errorf("BIU lost pc %#x", pc)
		}
		if e.MT != want.mt || e.Sel.State() != want.sel {
			return fmt.Errorf("BIU pc %#x: MT %v state %d, reference MT %v state %d",
				pc, e.MT, e.Sel.State(), want.mt, want.sel)
		}
	}
	return nil
}
