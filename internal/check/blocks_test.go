package check

import (
	"testing"

	"repro/internal/history"
	"repro/internal/ittage"
	"repro/internal/twolevel"
)

// TestStreamVariantBlockIdentity replays the stream-variant line-up through
// the record and block engines over several random traces: each family's
// block path must walk the lane of the stream it is built on, not the one
// it ships with.
func TestStreamVariantBlockIdentity(t *testing.T) {
	for seed := uint64(41); seed < 47; seed++ {
		if err := BlockEngineIdentity(RandomTrace(seed, metaEvents), StreamVariantPredictors); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
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
