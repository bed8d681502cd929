package check

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cascade"
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
// counter or prediction. Every comparison below replays identical inputs
// through the record engine and sim.Engine.ProcessBlock and requires the
// outcomes — counters, RAS and each predictor's prediction at every
// dispatch — to agree exactly.

// blockDiffCaps are the block capacities the differential replays exercise:
// the shipped capacity, plus a deliberately tiny odd one so short (and
// shrunken) traces still cross many block boundaries and the cross-block
// state continuity of histories, RAS and selectors is on the hook.
var blockDiffCaps = []int{trace.BlockCap, 7}

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

// recordEngine is the reference side of a blocks-vs-records comparison:
// recs replayed record at a time through one engine over a set built by
// build, and each predictor's prediction at every MT dispatch, from an
// engine of its own whose ProcessPredicted reports it.
func recordEngine(recs []trace.Record, build func() []predictor.IndirectPredictor) (*sim.Engine, [][]predictor.Prediction) {
	eng := sim.New(build()...)
	eng.ProcessAll(recs)
	preds := make([][]predictor.Prediction, len(eng.Counters()))
	for i := range preds {
		solo := sim.New(build()[i])
		for _, r := range recs {
			if p, dispatched := solo.ProcessPredicted(r); dispatched {
				preds[i] = append(preds[i], predictor.Prediction{Target: p.Target, Predicted: p.Predicted})
			}
		}
	}
	return eng, preds
}

// blockEngineMatches replays recs through the block engine in blocks of
// bcap records over a set built by build, concatenating each predictor's
// prediction lane block by block, and compares the engine with rec and the
// lanes with want.
func blockEngineMatches(recs []trace.Record, build func() []predictor.IndirectPredictor, bcap int, rec *sim.Engine, want [][]predictor.Prediction) error {
	blk := sim.New(build()...)
	got := make([][]predictor.Prediction, len(want))
	blks := trace.BlocksSized(recs, bcap)
	for k := range blks {
		blk.ProcessBlock(&blks[k])
		for i := range got {
			got[i] = append(got[i], blk.Predictions(i)...)
		}
	}
	if err := enginesMatch(rec, blk); err != nil {
		return err
	}
	for i := range want {
		if err := lanesMatch(want[i], got[i]); err != nil {
			return fmt.Errorf("predictor %s: %w", blk.Counters()[i].Predictor, err)
		}
	}
	return nil
}

// lanesMatch compares one predictor's per-dispatch predictions from the
// record engine with its block prediction lanes. A target counts only when
// it was predicted.
func lanesMatch(rec, blk []predictor.Prediction) error {
	if len(rec) != len(blk) {
		return fmt.Errorf("%d record-engine dispatches vs %d lane entries", len(rec), len(blk))
	}
	for j, r := range rec {
		b := blk[j]
		if r.Predicted != b.Predicted || r.Predicted && r.Target != b.Target {
			return fmt.Errorf("dispatch %d: record %+v vs lane %+v", j, r, b)
		}
	}
	return nil
}

// BlockEngineIdentity replays recs through a predictor set built by build,
// once record-at-a-time and once through the block engine at every
// blockDiffCaps capacity, and returns the first disagreement in the
// engines' observables or in any predictor's prediction lane.
func BlockEngineIdentity(recs []trace.Record, build func() []predictor.IndirectPredictor) error {
	rec, want := recordEngine(recs, build)
	for _, bcap := range blockDiffCaps {
		if err := blockEngineMatches(recs, build, bcap, rec, want); err != nil {
			return fmt.Errorf("block engine (cap %d): %w", bcap, err)
		}
	}
	return nil
}

// diffBlocks holds a single family to BlockEngineIdentity and returns the
// first divergence, or nil. An unknown label is an error. It is the check
// of the "blocks" row of Hunts.
func diffBlocks(family string, recs []trace.Record) (*Divergence, error) {
	if _, ok := newFamily(family); !ok {
		return nil, fmt.Errorf("check: unknown predictor family %q", family)
	}
	build := func() []predictor.IndirectPredictor { return newFamilies(family) }
	return diverged(family, BlockEngineIdentity(recs, build)), nil
}

// newFamilies builds one fresh predictor for each known family label.
func newFamilies(names ...string) []predictor.IndirectPredictor {
	ps := make([]predictor.IndirectPredictor, len(names))
	for i, name := range names {
		ps[i], _ = newFamily(name)
	}
	return ps
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

// BenchPredictors builds one predictor of every bench family, in
// bench.PredictorNames order: the line-up BlockEngineIdentity holds to the
// record engine beside ExtensionPredictors and StreamVariantPredictors.
func BenchPredictors() []predictor.IndirectPredictor {
	return newFamilies(Families()...)
}

// ExtensionPredictors builds the predictor set of the extension experiments
// that carry their own batch fast paths but sit outside the bench families:
// the extension families (the value-keyed CBT is ValueAware, so the Value
// lane is on the hook), and two members the engine replays through its
// record-at-a-time fallback inside a block: the unbounded oracle, and a
// BTB2b with its block path hidden (recordOnlyName).
// The oracle abstains on almost every dispatch of a short trace, so only
// the BTB2b puts predicted targets on the fallback's prediction lane.
// BlockEngineIdentity over this set pins all of them to the record engine
// at every block capacity.
func ExtensionPredictors() []predictor.IndirectPredictor {
	b, _ := bench.NewPredictor("BTB2b")
	return append(newFamilies(extensionFamilies...), oracle.New(8), recordOnly{b})
}

// recordOnlyName labels the ExtensionPredictors member that predicts
// through the engine's record-at-a-time fallback.
const recordOnlyName = "BTB2b-record-only"

// recordOnly hides a predictor's block path (and every other optional
// interface) behind the bare predictor contract.
type recordOnly struct{ predictor.IndirectPredictor }

// Name implements predictor.IndirectPredictor.
func (recordOnly) Name() string { return recordOnlyName }

var _ predictor.IndirectPredictor = (*recordOnly)(nil)

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
