package check

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cascade"
	"repro/internal/cbt"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/ittage"
	"repro/internal/oracle"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/twolevel"
	"repro/internal/workload"
)

// The blocks-vs-records suite holds the batched struct-of-arrays engine to
// the same standard as every other wrapper: the columnar form, the index
// lanes, the per-predictor batch fast paths and the whole-block-per-
// predictor reordering may change wall-clock time only, never a single
// counter. Every comparison below replays identical inputs through
// sim.Engine.ProcessAll and sim.Engine.ProcessBlocks and requires the
// outcomes to agree exactly.

// blockDiffCaps are the block capacities the differential replays exercise:
// the shipped capacity, plus a deliberately tiny odd one so short (and
// shrunken) traces still cross many block boundaries and the cross-block
// state continuity of histories, RAS and selectors is on the hook.
var blockDiffCaps = []int{trace.BlockCap, 7}

// BlockDivergence records a disagreement between the record engine and the
// block engine over the same trace.
type BlockDivergence struct {
	Family   string
	BlockCap int
	Detail   string
}

// String formats the divergence for bug reports.
func (d *BlockDivergence) String() string {
	return fmt.Sprintf("%s: block engine (cap %d) diverged from record engine: %s",
		d.Family, d.BlockCap, d.Detail)
}

// enginesMatch compares every observable of two engines that replayed the
// same trace: accounting, RAS accuracy and per-predictor counters.
func enginesMatch(rec, blk *sim.Engine) error {
	if rec.Records() != blk.Records() {
		return fmt.Errorf("records %d vs %d", rec.Records(), blk.Records())
	}
	if rec.Instructions() != blk.Instructions() {
		return fmt.Errorf("instructions %d vs %d", rec.Instructions(), blk.Instructions())
	}
	rh, rt := rec.RAS().Accuracy()
	bh, bt := blk.RAS().Accuracy()
	if rh != bh || rt != bt {
		return fmt.Errorf("RAS accuracy %d/%d vs %d/%d", rh, rt, bh, bt)
	}
	a, b := rec.Counters(), blk.Counters()
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d counters", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("predictor %s: record %+v vs block %+v", a[i].Predictor, a[i], b[i])
		}
	}
	return nil
}

// BlockEngineIdentity replays recs through a predictor set built by build,
// once record-at-a-time and once through the block engine at every
// blockDiffCaps capacity, and returns the first disagreement.
func BlockEngineIdentity(recs []trace.Record, build func() []predictor.IndirectPredictor) error {
	rec := sim.New(build()...)
	rec.ProcessAll(recs)
	for _, bcap := range blockDiffCaps {
		blk := sim.New(build()...)
		blk.ProcessBlocks(trace.BlocksSized(recs, bcap))
		if err := enginesMatch(rec, blk); err != nil {
			return fmt.Errorf("block engine (cap %d): %w", bcap, err)
		}
	}
	return nil
}

// DiffBlocks replays recs through a single predictor family under both
// engines and returns the first divergence, or nil if they agreed at every
// block capacity. An unknown label is an error.
func DiffBlocks(family string, recs []trace.Record) (*BlockDivergence, error) {
	for _, bcap := range blockDiffCaps {
		p1, ok := bench.NewPredictor(family)
		if !ok {
			return nil, fmt.Errorf("check: unknown predictor family %q", family)
		}
		p2, _ := bench.NewPredictor(family)
		rec := sim.New(p1)
		rec.ProcessAll(recs)
		blk := sim.New(p2)
		blk.ProcessBlocks(trace.BlocksSized(recs, bcap))
		if err := enginesMatch(rec, blk); err != nil {
			return &BlockDivergence{Family: family, BlockCap: bcap, Detail: err.Error()}, nil
		}
	}
	return nil, nil
}

// DivergesBlocks reports whether the family's block replay disagrees with
// its record replay — the predicate the shrinker minimizes against.
func DivergesBlocks(family string, recs []trace.Record) bool {
	d, err := DiffBlocks(family, recs)
	return err == nil && d != nil
}

// BlocksVsRecords checks the full matrix contract: sched.SimulateBlocks
// must return exactly the counters and summaries of the record engine —
// sim.Run over cfg.Records() — at every worker width in [1, maxWorkers],
// through an unlimited trace cache and through one whose budget holds a
// single trace, so cells also take the evict-and-regenerate
// path. Caching, sharding and the block engine may change wall-clock time
// only.
func BlocksVsRecords(suite []workload.Config, build func() []predictor.IndirectPredictor, maxWorkers int) error {
	want := make([]sched.Result, len(suite))
	var oneEntry int64
	for i, cfg := range suite {
		recs, sum := cfg.Records()
		want[i] = sched.Result{Config: cfg, Summary: sum, Counters: sim.Run(recs, build()...)}
		probe := tracecache.New(0)
		probe.GetBlocks(cfg)
		oneEntry = max(oneEntry, probe.Stats().Bytes)
	}
	for _, budget := range []int64{0, oneEntry} {
		cache := tracecache.New(budget)
		for w := 1; w <= maxWorkers; w++ {
			if err := resultsEqual(want, sched.New(w).SimulateBlocks(cache, suite, build)); err != nil {
				return fmt.Errorf("blocks-vs-records: budget %d, workers %d: %w", budget, w, err)
			}
		}
		if budget > 0 && len(suite) > 1 && cache.Stats().Evicted == 0 {
			return fmt.Errorf("blocks-vs-records: budget %d never evicted", budget)
		}
	}
	return nil
}

// ExtensionPredictors builds the predictor set of the extension experiments
// that carry their own batch fast paths but sit outside the bench families:
// the value-keyed CBT (ValueAware, so the Value lane is on the hook), the
// leaky-filtered PPM, the multi-target Markov stack, and the unbounded
// oracle that exercises the engine's record-at-a-time fallback inside a
// block. BlockEngineIdentity over this set pins all of them to the record
// engine at every block capacity.
func ExtensionPredictors() []predictor.IndirectPredictor {
	return []predictor.IndirectPredictor{
		cbt.New(cbt.Config{Entries: 2048, Availability: 0.5, Seed: 0xCB7}),
		core.PaperFiltered(),
		core.NewMultiTarget(10, 4),
		oracle.New(8),
	}
}

// StreamVariantPredictors builds each history family on the lane stream it
// does not ship with: GAp and Target Cache on the MT stream; Dual-path, a
// Cascade main and ITTAGE on the PIB stream. Their block paths walk the
// lane history.Stream.Lane names, so BlockEngineIdentity over this set
// holds that mapping to the record engine's Stream.Accepts for the
// family/stream pairs the shipped line-ups leave out.
func StreamVariantPredictors() []predictor.IndirectPredictor {
	gap := refPaperGAp()
	gap.Name, gap.HistoryStream = "GAp-MT", history.MTIndirectBranches
	dpath := onStream(refPaperDualPath(), "Dpath-PIB", history.IndirectBranches)
	main := onStream(refPaperCascadeMain(), "Cascade-PIB-main", history.IndirectBranches)
	return []predictor.IndirectPredictor{
		twolevel.NewGAp(gap),
		twolevel.NewTargetCache(twolevel.TargetCacheConfig{
			Name: "TC-MT", Entries: 2048, HistoryBits: 11, BitsPerTarget: 2,
			HistoryStream: history.MTIndirectBranches,
		}),
		twolevel.NewDualPath(dpath),
		cascade.New(cascade.Config{Name: "Cascade-PIB", FilterEntries: 128, Policy: cascade.Leaky, Main: main}),
		ittage.New(ittage.Config{
			Name: "ITTAGE-PIB", BaseEntries: 1024, Banks: 4, BankEntries: 256, TagBits: 10,
			MinHist: 4, MaxHist: 64, BitsPerItem: 2, ResetPeriod: 2048,
			Stream: history.IndirectBranches,
		}),
	}
}

// onStream renames a Dual-path configuration and moves both of its
// components onto stream.
func onStream(cfg twolevel.DualPathConfig, name string, stream history.Stream) twolevel.DualPathConfig {
	cfg.Name = name
	cfg.Short.HistoryStream, cfg.Long.HistoryStream = stream, stream
	return cfg
}
