// Package check is the repository's differential-oracle correctness
// harness. For every predictor family of Figures 6 and 7 it keeps a naive,
// obviously-correct reference implementation — maps instead of arrays,
// bit-slice hashes instead of shift tricks, histories recomputed from
// scratch instead of incrementally maintained registers.
//
// Its lock-step differentials are the rows of one table, Hunts: each
// family against its naive reference ("diff"), the block engine against
// the record engine ("blocks"), and snapshot/restore at every cut against
// the uncut run ("state"). Every row replays a trace through one family
// two ways that must agree and reports the first Divergence; Search runs
// a row over randomized traces and shrinks each failing trace to a
// minimal reproduction, and the corpus under testdata/ pins every bug
// ever found, replayed by ReplaySeed through the row its kind names.
//
// The package also hosts the metamorphic property runner (equivalences the
// simulator must satisfy: same-seed byte identity, cache and parallelism
// invariance, served-versus-serial agreement) and, in the faultio
// subpackage, the I/O fault-injection layer used to drive trace decoding
// and the ppmserved upload path through every truncation offset.
//
// Everything here is measurement equipment, not simulated hardware, so it
// deliberately trades speed for transparency; nothing in this package is on
// the simulator's hot path.
package check

import (
	"repro/internal/bench"
	"repro/internal/cbt"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/twolevel"
)

// Families lists the predictor labels the harness covers differentially:
// every label the optimized registry accepts.
func Families() []string { return bench.PredictorNames() }

// extensionFamilies label the extension experiments' predictors that the
// blocks and snapshot hunts cover beside the bench families: the
// value-keyed CBT, the leaky-filtered PPM and the multi-target Markov
// stack. They have no naive reference.
var extensionFamilies = []string{"CBT", "PPM-filtered", "PPM-multi"}

// engineFamilies lists the labels the blocks and snapshot hunts cover.
func engineFamilies() []string { return append(Families(), extensionFamilies...) }

// newFamily builds a fresh predictor for a bench or extension family
// label, configured as the experiments configure it. Returns false for
// unknown labels.
func newFamily(name string) (predictor.IndirectPredictor, bool) {
	switch name {
	case "CBT":
		return cbt.New(cbt.Config{Entries: 2048, Availability: 0.5, Seed: 0xCB7}), true
	case "PPM-filtered":
		return core.PaperFiltered(), true
	case "PPM-multi":
		return core.NewMultiTarget(10, 4), true
	}
	return bench.NewPredictor(name)
}

// refPaperGAp restates the Section 5 GAp configuration for the reference
// side. The literals are intentionally duplicated from the optimized
// constructors: the reference pins the paper's configuration, so a drift in
// either copy shows up as a divergence.
func refPaperGAp() twolevel.GApConfig {
	return twolevel.GApConfig{
		Name:          "GAp",
		Entries:       2048,
		PHTs:          2,
		Assoc:         1,
		PathLength:    5,
		BitsPerTarget: 2,
		HistoryStream: history.IndirectBranches,
		Indexing:      twolevel.GShare,
	}
}

// refPaperDualPath restates the Section 5 Dpath configuration.
func refPaperDualPath() twolevel.DualPathConfig {
	return twolevel.DualPathConfig{
		Name:      "Dpath",
		Selectors: 1024,
		Short: twolevel.GApConfig{
			Entries:       1024,
			PHTs:          1,
			Assoc:         1,
			PathLength:    1,
			BitsPerTarget: 24,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      twolevel.ReverseInterleave,
		},
		Long: twolevel.GApConfig{
			Entries:       1024,
			PHTs:          1,
			Assoc:         1,
			PathLength:    3,
			BitsPerTarget: 8,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      twolevel.ReverseInterleave,
		},
	}
}

// refPaperCascadeMain restates the Section 5 Cascade main-predictor
// configuration (tagged 4-way components, path lengths 4 and 6).
func refPaperCascadeMain() twolevel.DualPathConfig {
	return twolevel.DualPathConfig{
		Name:      "Cascade-main",
		Selectors: 1024,
		Short: twolevel.GApConfig{
			Entries:       1024,
			PHTs:          1,
			Assoc:         4,
			Tagged:        true,
			PathLength:    4,
			BitsPerTarget: 6,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      twolevel.ReverseInterleave,
		},
		Long: twolevel.GApConfig{
			Entries:       1024,
			PHTs:          1,
			Assoc:         4,
			Tagged:        true,
			PathLength:    6,
			BitsPerTarget: 4,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      twolevel.ReverseInterleave,
		},
	}
}

// refPaperCascadeMainU restates the Cascade-u main-predictor configuration:
// the Section 5 Cascade tables with u-bit replacement and the ITTAGE
// graceful-reset period.
func refPaperCascadeMainU() twolevel.DualPathConfig {
	return twolevel.DualPathConfig{
		Name:      "Cascade-u-main",
		Selectors: 1024,
		Short: twolevel.GApConfig{
			Entries:           1024,
			PHTs:              1,
			Assoc:             4,
			Tagged:            true,
			PathLength:        4,
			BitsPerTarget:     6,
			HistoryBits:       24,
			HistoryStream:     history.MTIndirectBranches,
			Indexing:          twolevel.ReverseInterleave,
			Useful:            true,
			UsefulResetPeriod: 2048,
		},
		Long: twolevel.GApConfig{
			Entries:           1024,
			PHTs:              1,
			Assoc:             4,
			Tagged:            true,
			PathLength:        6,
			BitsPerTarget:     4,
			HistoryBits:       24,
			HistoryStream:     history.MTIndirectBranches,
			Indexing:          twolevel.ReverseInterleave,
			Useful:            true,
			UsefulResetPeriod: 2048,
		},
	}
}

// NewReference builds the naive reference for a Figure 6/7 predictor label,
// configured exactly as bench.NewPredictor configures the optimized
// implementation. Returns false for unknown labels.
func NewReference(name string) (predictor.IndirectPredictor, bool) {
	switch name {
	case "BTB":
		return NewRefBTB(2048), true
	case "BTB2b":
		return NewRefBTB2b(2048), true
	case "GAp":
		return NewRefGAp(refPaperGAp()), true
	case "TC-PIB":
		return NewRefTargetCache(twolevel.TargetCacheConfig{
			Name:          "TC-PIB",
			Entries:       2048,
			HistoryBits:   11,
			BitsPerTarget: 2,
			HistoryStream: history.IndirectBranches,
		}), true
	case "Dpath":
		return NewRefDualPath(refPaperDualPath()), true
	case "Cascade":
		return NewRefCascade(128, false, refPaperCascadeMain()), true
	case "PPM-hyb":
		return NewRefPPM(core.DefaultConfig(core.Hybrid)), true
	case "PPM-PIB":
		return NewRefPPM(core.DefaultConfig(core.PIBOnly)), true
	case "PPM-hyb-biased":
		return NewRefPPM(core.DefaultConfig(core.HybridBiased)), true
	case "ITTAGE":
		return NewRefITTAGE(), true
	case "Cascade-u":
		return NewRefCascadeNamed("Cascade-u", 128, false, refPaperCascadeMainU()), true
	}
	return nil, false
}
