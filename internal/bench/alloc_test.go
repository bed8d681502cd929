package bench

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cbt"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/predictor"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/trace"
)

// allocTrace generates one representative workload small enough to replay
// in an alloc-counting loop but broad enough to touch every predictor
// structure (ST and MT sites, calls and jumps, conditional fabric).
func allocTrace(t *testing.T) []trace.Record {
	t.Helper()
	cfg, ok := ByName("gcc.cp")
	if !ok {
		t.Fatal("gcc.cp missing from suite")
	}
	cfg.Events = 3000
	recs, _ := cfg.Records()
	return recs
}

// replay drives one predictor over the records with the engine's per-record
// protocol (predict and train on MT indirect branches, observe everything).
func replay(p predictor.IndirectPredictor, recs []trace.Record) {
	for _, r := range recs {
		if r.MTIndirect() {
			p.Predict(r.PC)
			p.Update(r.PC, r.Target)
		}
		p.Observe(r)
	}
}

// TestPredictorsZeroAllocSteadyState locks in the hot-path purity the
// hotpath analyzer and escape gate enforce statically: after a warm-up pass
// has faulted in every first-touch structure (BIU entries, table fills),
// replaying the identical record stream through Predict→Update→Observe
// must not allocate at all.
func TestPredictorsZeroAllocSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	recs := allocTrace(t)
	for _, name := range PredictorNames() {
		t.Run(name, func(t *testing.T) {
			p, ok := NewPredictor(name)
			if !ok {
				t.Fatalf("NewPredictor(%q) unknown", name)
			}
			replay(p, recs) // warm-up: first-touch fills are allowed to allocate
			if avg := testing.AllocsPerRun(20, func() { replay(p, recs) }); avg != 0 {
				t.Errorf("%s: %.2f allocs per steady-state replay, want 0", name, avg)
			}
		})
	}
}

// TestVariantsZeroAllocSteadyState extends the guarantee to the predictor
// variants the experiment harness ships beyond the Figure 6/7 set: the
// filtered PPM and the multi-target (majority-vote) PPM.
func TestVariantsZeroAllocSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	recs := allocTrace(t)
	variants := []struct {
		name  string
		build func() predictor.IndirectPredictor
	}{
		{"PPM-filtered", func() predictor.IndirectPredictor { return core.PaperFiltered() }},
		{"PPM-multi", func() predictor.IndirectPredictor { return core.NewMultiTarget(10, 4) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			p := v.build()
			replay(p, recs)
			if avg := testing.AllocsPerRun(20, func() { replay(p, recs) }); avg != 0 {
				t.Errorf("%s: %.2f allocs per steady-state replay, want 0", v.name, avg)
			}
		})
	}
}

// TestEngineZeroAllocSteadyState asserts the full engine loop — RAS,
// counters, every Figure 6 predictor attached — is allocation-free once
// warmed, since Engine.Process is itself a //ppm:hotpath function.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	recs := allocTrace(t)
	e := sim.New(Figure6Predictors()...)
	e.ProcessAll(recs)
	if avg := testing.AllocsPerRun(10, func() { e.ProcessAll(recs) }); avg != 0 {
		t.Errorf("engine: %.2f allocs per steady-state pass, want 0", avg)
	}
}

// TestBlockEngineZeroAllocSteadyState extends the engine guarantee to the
// batched block path: once the columnar blocks exist and a warm-up pass has
// faulted in every first-touch structure, Engine.ProcessBlocks — index-lane
// fast paths and the record-loop fallback alike — must not allocate. The
// deliberately tiny second capacity maximizes per-block overhead relative
// to payload, so block-boundary bookkeeping is covered too.
func TestBlockEngineZeroAllocSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	recs := allocTrace(t)
	for _, set := range []struct {
		name  string
		build func() []predictor.IndirectPredictor
	}{
		{"fig6", Figure6Predictors},
		{"fig7", Figure7Predictors},
		// The modern family (ITTAGE, Cascade-u): their MTIdx-lane block fast
		// paths and the incremental folded-history updates must stay pure.
		{"modern", ModernPredictors},
		// The extension predictors with their own batch fast paths; the
		// oracle is deliberately absent (see TestOracleExemptFromZeroAlloc).
		{"extensions", func() []predictor.IndirectPredictor {
			return []predictor.IndirectPredictor{
				cbt.New(cbt.Config{Entries: 2048, Availability: 0.5, Seed: 0xCB7}),
				core.PaperFiltered(),
				core.NewMultiTarget(10, 4),
			}
		}},
	} {
		for _, bcap := range []int{trace.BlockCap, 64} {
			t.Run(fmt.Sprintf("%s/cap%d", set.name, bcap), func(t *testing.T) {
				blks := trace.BlocksSized(recs, bcap)
				e := sim.New(set.build()...)
				e.ProcessBlocks(blks)
				if avg := testing.AllocsPerRun(10, func() { e.ProcessBlocks(blks) }); avg != 0 {
					t.Errorf("block engine: %.2f allocs per steady-state pass, want 0", avg)
				}
			})
		}
	}
}

// TestOracleExemptFromZeroAlloc documents the deliberate exception: the
// oracle is a measurement device with unbounded context storage and is
// annotated //ppm:coldpath rather than made allocation-free. New contexts
// keep allocating even after a warm pass would have in a hardware model.
func TestOracleExemptFromZeroAlloc(t *testing.T) {
	recs := allocTrace(t)
	o := oracle.New(8)
	replay(o, recs)
	// No assertion on a positive count — just prove the exemption is
	// load-bearing by exercising the same protocol without failing.
	replay(o, recs)
}

// TestGenerateBlocksAllocBudget guards trace generation's memory shape:
// Config.Blocks writes each suite run's records straight into block lanes
// and snapshots its histories into preallocated slots, so what it
// allocates stays close to the columnar footprint it returns (1.18-1.23x
// on amd64 and 386: the final block's trim copy, the block slice's growth
// and the generator's own state). Generating into a []Record first and
// converting costs 3.3-4.0x that footprint, and allocating per snapshot
// 1.24-1.42x; the budget of 1.25x fails on either.
func TestGenerateBlocksAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	const budget = 1.25
	for _, cfg := range Sized(20000) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blks, _ := cfg.Blocks()
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		resident := trace.BlocksBytes(blks)
		if ratio := float64(alloc) / float64(resident); ratio > budget {
			t.Errorf("%s: generation allocated %d bytes for %d bytes of blocks (%.2fx, budget %.2fx)",
				cfg, alloc, resident, ratio, budget)
		}
	}
}
