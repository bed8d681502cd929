package check

import (
	"testing"

	"repro/internal/history"
	"repro/internal/ittage"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/twolevel"
)

// TestBlockEngineIdentity holds every bench family and the extension
// line-up — CBT's Value lane and the record-at-a-time fallback among them —
// to the record engine, counters and prediction lanes both, over a
// workload trace and a raw adversarial stream. On each trace the
// fallback's predicting member must venture a target on most dispatches
// and get some right, so a wrong target the fallback stores shows.
func TestBlockEngineIdentity(t *testing.T) {
	traces := map[string][]trace.Record{
		"workload": RandomTrace(24, metaEvents),
		"raw":      RandomRecords(24, metaEvents),
	}
	for kind, recs := range traces {
		for name, build := range map[string]func() []predictor.IndirectPredictor{
			"bench":     BenchPredictors,
			"extension": ExtensionPredictors,
		} {
			if err := BlockEngineIdentity(recs, build); err != nil {
				t.Errorf("%s line-up, %s trace: %v", name, kind, err)
			}
		}
		eng := sim.New(ExtensionPredictors()...)
		eng.ProcessBlocks(trace.Blocks(recs))
		for _, c := range eng.Counters() {
			if c.Predictor == recordOnlyName && (c.Correct == 0 || 2*(c.Correct+c.Wrong) < c.Lookups) {
				t.Errorf("%s trace: the record-only member predicted %d of %d dispatches (%d right); the fallback lane is held on abstentions",
					kind, c.Correct+c.Wrong, c.Lookups, c.Correct)
			}
		}
	}
}

// TestStreamVariantBlockIdentity replays the stream-variant line-up through
// the record and block engines over several random traces: each family's
// block path must walk the lane of the stream it is built on, not the one
// it ships with. That is only visible on a trace whose PIB lane holds
// records its MT lane does not (single-target indirect branches), and
// RandomTrace seeds 41 and 45 have none at this size; the raw adversarial
// streams, MT on about 70% of records, add traces that have plenty. The
// test asserts enough traces separate the lanes, so a generator change
// cannot quietly blind it.
func TestStreamVariantBlockIdentity(t *testing.T) {
	const minSeparating = 10
	separating := 0
	for seed := uint64(41); seed < 47; seed++ {
		traces := map[string][]trace.Record{
			"workload": RandomTrace(seed, metaEvents),
			"raw":      RandomRecords(seed, metaEvents),
		}
		for kind, recs := range traces {
			if separatesLanes(recs) {
				separating++
			}
			if err := BlockEngineIdentity(recs, StreamVariantPredictors); err != nil {
				t.Errorf("%s seed %d: %v", kind, seed, err)
			}
		}
	}
	if separating < minSeparating {
		t.Errorf("%d traces hold single-target indirect records, want at least %d: the PIB and MT lanes coincide on the rest",
			separating, minSeparating)
	}
}

// separatesLanes reports whether recs, in blocks, has more PIB-lane than
// MT-lane entries, so a block path walking the wrong one of the two shows.
func separatesLanes(recs []trace.Record) bool {
	pib, mt := 0, 0
	for _, b := range trace.Blocks(recs) {
		pib += len(b.PIBIdx)
		mt += len(b.MTIdx)
	}
	return pib > mt
}

// TestLanelessStreamsPanic: the families whose block paths walk an index
// lane refuse, at construction, a stream that has no lane, and Dual-path
// refuses components on different streams.
func TestLanelessStreamsPanic(t *testing.T) {
	gap := refPaperGAp()
	gap.HistoryStream = history.AllBranches
	mixed := refPaperDualPath()
	mixed.Long.HistoryStream = history.IndirectBranches
	cases := map[string]func(){
		"GAp/PB": func() { twolevel.NewGAp(gap) },
		"TC/PB": func() {
			twolevel.NewTargetCache(twolevel.TargetCacheConfig{
				Entries: 2048, HistoryBits: 11, BitsPerTarget: 2,
				HistoryStream: history.AllBranches,
			})
		},
		"ITTAGE/PB": func() {
			ittage.New(ittage.Config{
				BaseEntries: 1024, Banks: 4, BankEntries: 256, TagBits: 10,
				MinHist: 4, MaxHist: 64, BitsPerItem: 2, ResetPeriod: 2048,
				Stream: history.AllBranches,
			})
		},
		"Dpath/mixed": func() { twolevel.NewDualPath(mixed) },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("constructor did not panic")
				}
			}()
			build()
		})
	}
}
