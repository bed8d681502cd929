package bench

import (
	"fmt"

	"repro/internal/btb"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/ittage"
	"repro/internal/predictor"
	"repro/internal/twolevel"
)

// families lists every predictor NewPredictor builds, in display order:
// the 1998 designs of Figures 6 and 7 first, then the modern family. Each
// holds the paper's 2K-entry hardware budget.
var families = []struct {
	name string
	new  func() predictor.IndirectPredictor
}{
	{"BTB", func() predictor.IndirectPredictor { return btb.New(2048) }},
	{"BTB2b", func() predictor.IndirectPredictor { return btb.New2b(2048) }},
	{"GAp", func() predictor.IndirectPredictor { return twolevel.PaperGAp() }},
	{"TC-PIB", func() predictor.IndirectPredictor { return twolevel.PaperTCPIB() }},
	{"Dpath", func() predictor.IndirectPredictor { return twolevel.PaperDualPath() }},
	{"Cascade", func() predictor.IndirectPredictor { return cascade.Paper() }},
	{"PPM-hyb", func() predictor.IndirectPredictor { return core.PaperHyb() }},
	{"PPM-PIB", func() predictor.IndirectPredictor { return core.PaperPIB() }},
	{"PPM-hyb-biased", func() predictor.IndirectPredictor { return core.PaperHybBiased() }},
	{"ITTAGE", func() predictor.IndirectPredictor { return ittage.Paper() }},
	{"Cascade-u", func() predictor.IndirectPredictor { return cascade.PaperU() }},
}

// The named line-ups, as NewPredictor labels in column order.
var (
	figure6 = []string{"BTB", "BTB2b", "GAp", "TC-PIB", "Dpath", "Cascade", "PPM-hyb"}
	figure7 = []string{"PPM-hyb", "PPM-PIB", "PPM-hyb-biased"}
	modern  = []string{"ITTAGE", "Cascade-u"}
)

// Lineup returns the labels of the line-up a job or check names by suite:
// "fig6" (also the default, "") or "fig7". It returns false for any other
// name. The slice is shared: callers must not modify it.
func Lineup(suite string) ([]string, bool) {
	switch suite {
	case "", "fig6":
		return figure6, true
	case "fig7":
		return figure7, true
	}
	return nil, false
}

// Predictors returns fresh instances of the named predictors, in order. It
// fails on the first name NewPredictor does not know.
func Predictors(names []string) ([]predictor.IndirectPredictor, error) {
	preds := newSet(names)
	for i, p := range preds {
		if p == nil {
			return nil, fmt.Errorf("unknown predictor %q", names[i])
		}
	}
	return preds, nil
}

// newSet builds the named predictors, leaving nil where a name is unknown.
func newSet(names []string) []predictor.IndirectPredictor {
	preds := make([]predictor.IndirectPredictor, len(names))
	for i, n := range names {
		preds[i], _ = NewPredictor(n)
	}
	return preds
}

// Figure6Predictors returns fresh instances of the seven predictors of
// Figure 6, in the figure's order.
func Figure6Predictors() []predictor.IndirectPredictor { return newSet(figure6) }

// Figure7Predictors returns fresh instances of the three PPM variants of
// Figure 7.
func Figure7Predictors() []predictor.IndirectPredictor { return newSet(figure7) }

// ModernPredictors returns fresh instances of the post-1998 family — the
// predictors the "1998 vs modern" matched-budget comparison pits against
// Figure 6.
func ModernPredictors() []predictor.IndirectPredictor { return newSet(modern) }

// NewPredictor constructs a paper-configured predictor by its Figure 6/7
// label. It returns false for unknown names.
func NewPredictor(name string) (predictor.IndirectPredictor, bool) {
	for _, f := range families {
		if f.name == name {
			return f.new(), true
		}
	}
	return nil, false
}

// PredictorNames lists every label NewPredictor accepts, in display order.
func PredictorNames() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}
