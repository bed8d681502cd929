package state_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bench"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
)

// goldenPrefix is how many records of each bench.Sized(goldenEvents) run
// train a family before it is snapshotted.
const (
	goldenEvents = 2000
	goldenPrefix = 1500
)

// snapshotGolden holds, per family, the SHA-256 over the concatenated
// state.Save bytes of one fresh engine per suite run after training on that
// run's goldenPrefix records. The hashes pin the wire format of the current
// state.Version: a change to a predictor's in-memory layout must leave them
// alone, and a deliberate format change bumps the version and rewrites them.
var snapshotGolden = map[string]string{
	"BTB":            "942f36a8c907a8bb2825358f13d116cd216404c007d4c5a2f1fd59e433abf2f6",
	"BTB2b":          "c47a7976eaf4b2c2dfedd12a0dc2c578860b183543a191108d81f0cc193a4e8c",
	"GAp":            "59ed425d3867a3d9ce2915e9ff1584d1292e45c6d4ad2f8db4ac8a1b243a940c",
	"TC-PIB":         "9a8566188dc712e65b9c65de07e897a4195713bbb3be5fba724f04e41f9b1534",
	"Dpath":          "ded6b17c270934567b32b08f3dac6d3d317abfae50c93603583fbcf998a1e3b5",
	"Cascade":        "e69955d20bf67fb1089a5b0ec8d562763dae59a4902379ac1fa2d6ff10b81b5e",
	"PPM-hyb":        "c45ffa8fc516911c344beb724d7a93f2279d403763ba97151f14bba205d735b4",
	"PPM-PIB":        "f332cf1370e7cf25afb78d891aad90050640a71113eb5c3f866f49e16317fa46",
	"PPM-hyb-biased": "724ca3fa4e89af3fb299a6d1b256fd00d81207947394513257a3caa67ca25975",
	"ITTAGE":         "9aaacb7d767551416517b561d60468ecc88f9117b5e7092a6c906940172a68b5",
	"Cascade-u":      "f4bb1a74f2a3027a46d0c8a345a1bc2f4f6845417f651cc80f159909592c66d3",
}

// TestSnapshotGolden replays fixed prefixes of the seeded suite through the
// record engine and the block engine, requires both to serialize the same
// bytes, and compares their hash with the pinned one. The block engine's
// bytes matter on their own: state a prediction never reads (the BIU's MT
// bits, say) shows up only here.
func TestSnapshotGolden(t *testing.T) {
	runs := bench.Sized(goldenEvents)
	prefixes := make([][]trace.Record, len(runs))
	for i, cfg := range runs {
		recs, _ := cfg.Records()
		prefixes[i] = recs[:min(goldenPrefix, len(recs))]
	}
	all := builders()
	for _, name := range bench.PredictorNames() {
		build := all[name]
		t.Run(name, func(t *testing.T) {
			h := sha256.New()
			for i, recs := range prefixes {
				rec := sim.New(build())
				rec.ProcessAll(recs)
				blk := sim.New(build())
				blk.ProcessBlocks(trace.Blocks(recs))
				a, b := state.SaveBytes(rec), state.SaveBytes(blk)
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: record and block engines serialize different state (%d vs %d bytes)", runs[i], len(a), len(b))
				}
				h.Write(a)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := snapshotGolden[name]; got != want {
				t.Errorf("snapshot hash %s, want %s", got, want)
			}
		})
	}
}

// TestSizeOfMatchesSave holds SizeOf's counting walk to Save: for every
// snapshot-capable family, over the TestSnapshotGolden inputs, the count
// equals the snapshot's length at every training point, and again in a
// fresh engine loaded from the snapshot. Counting must not allocate.
func TestSizeOfMatchesSave(t *testing.T) {
	runs := bench.Sized(goldenEvents)
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			for _, cfg := range runs {
				recs, _ := cfg.Records()
				recs = recs[:min(goldenPrefix, len(recs))]
				eng := sim.New(build())
				for off := 0; ; off += 250 {
					if got, want := state.SizeOf(eng), len(state.SaveBytes(eng)); got != want {
						t.Fatalf("%s after %d records: SizeOf = %d, len(Save) = %d", cfg, off, got, want)
					}
					if off >= len(recs) {
						break
					}
					eng.ProcessBlocks(trace.Blocks(recs[off:min(off+250, len(recs))]))
				}
				snap := state.SaveBytes(eng)
				loaded := sim.New(build())
				if err := state.LoadBytes(loaded, snap); err != nil {
					t.Fatalf("%s: load: %v", cfg, err)
				}
				if got := state.SizeOf(loaded); got != len(snap) {
					t.Fatalf("%s: SizeOf after Load = %d, len(Save) = %d", cfg, got, len(snap))
				}
			}
		})
	}
	if race.Enabled {
		return // race instrumentation allocates
	}
	eng := sim.New(builders()["PPM-hyb"]())
	state.SizeOf(eng)
	if allocs := testing.AllocsPerRun(20, func() { state.SizeOf(eng) }); allocs != 0 {
		t.Errorf("SizeOf allocates %.0f times per call, want 0", allocs)
	}
}
