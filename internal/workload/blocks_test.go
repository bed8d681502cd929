package workload_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// jmpOnly emits exactly one record per event: MT indirect jumps alone, no
// conditional burst, calls or single-target pairs. Its length is therefore
// Events, which lets a test land on and just past a block boundary.
func jmpOnly(events int) workload.Config {
	return workload.Config{
		Name: "jmponly", Seed: 3, Events: events,
		Sites: []workload.SiteSpec{
			{Label: "sw", Class: trace.IndirectJmp, NumTargets: 4, Behavior: workload.Cyclic{}, Weight: 1},
		},
	}
}

// TestBlocksMatchRecordsConversion tests the flatten both ways: Records
// flattens Blocks, and converting its output back with trace.Blocks must
// give Blocks' blocks again — the same lanes in every block, derived lanes
// included, the same Value-lane presence, the same columnar footprint —
// with an identical summary. Generate, which streams one reused block,
// must emit exactly Records' output.
func TestBlocksMatchRecordsConversion(t *testing.T) {
	cfgs := bench.Sized(2000)
	for seed := uint64(1); seed <= 24; seed++ {
		cfgs = append(cfgs, check.RandomConfig(seed, 300+int(seed)*37))
	}
	cfgs = append(cfgs, jmpOnly(2*trace.BlockCap), jmpOnly(2*trace.BlockCap+1))
	for i, cfg := range cfgs {
		t.Run(fmt.Sprintf("%d-%s", i, cfg), func(t *testing.T) {
			got, gotSum := cfg.Blocks()
			recs, wantSum := cfg.Records()
			want := trace.Blocks(recs)
			if !reflect.DeepEqual(gotSum, wantSum) {
				t.Errorf("summary %+v, want %+v", gotSum, wantSum)
			}
			if len(got) != len(want) {
				t.Fatalf("%d blocks, want %d", len(got), len(want))
			}
			for b := range want {
				g, w := &got[b], &want[b]
				if err := sameLanes(g, w); err != nil {
					t.Fatalf("block %d: %v", b, err)
				}
			}
			if g, w := trace.BlocksBytes(got), trace.BlocksBytes(want); g != w {
				t.Errorf("BlocksBytes = %d, want %d", g, w)
			}
			var streamed []trace.Record
			genSum := cfg.Generate(func(r trace.Record) { streamed = append(streamed, r) })
			if !slices.Equal(streamed, recs) {
				t.Errorf("Generate emitted %d records that differ from Records' %d", len(streamed), len(recs))
			}
			if !reflect.DeepEqual(genSum, wantSum) {
				t.Errorf("Generate summary %+v, want %+v", genSum, wantSum)
			}
		})
	}
	for _, tc := range []struct{ events, blocks, last int }{
		{2 * trace.BlockCap, 2, trace.BlockCap},
		{2*trace.BlockCap + 1, 3, 1},
	} {
		blks, _ := jmpOnly(tc.events).Blocks()
		if len(blks) != tc.blocks || blks[len(blks)-1].Len() != tc.last {
			t.Errorf("%d records: %d blocks, last holds %d; want %d blocks, last %d",
				tc.events, len(blks), blks[len(blks)-1].Len(), tc.blocks, tc.last)
		}
	}
}

// sameLanes compares two blocks lane by lane.
func sameLanes(g, w *trace.Block) error {
	switch {
	case !slices.Equal(g.PC, w.PC):
		return fmt.Errorf("PC lane differs")
	case !slices.Equal(g.Target, w.Target):
		return fmt.Errorf("Target lane differs")
	case !slices.Equal(g.Meta, w.Meta):
		return fmt.Errorf("Meta lane differs")
	case !slices.Equal(g.Gap, w.Gap):
		return fmt.Errorf("Gap lane differs")
	case (g.Value == nil) != (w.Value == nil):
		return fmt.Errorf("Value lane nil = %t, want %t", g.Value == nil, w.Value == nil)
	case !slices.Equal(g.Value, w.Value):
		return fmt.Errorf("Value lane differs")
	case !slices.Equal(g.MTIdx, w.MTIdx):
		return fmt.Errorf("MTIdx lane differs")
	case !slices.Equal(g.PIBIdx, w.PIBIdx):
		return fmt.Errorf("PIBIdx lane differs")
	case g.GapSum != w.GapSum:
		return fmt.Errorf("GapSum %d, want %d", g.GapSum, w.GapSum)
	}
	return nil
}
