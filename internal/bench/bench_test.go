package bench

import (
	"testing"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestSuiteIntegrity(t *testing.T) {
	suite := Suite()
	if len(suite) != 14 {
		t.Fatalf("suite has %d runs, want 14", len(suite))
	}
	seen := map[string]bool{}
	for _, cfg := range suite {
		name := cfg.String()
		if seen[name] {
			t.Errorf("duplicate run %q", name)
		}
		seen[name] = true
		if cfg.Events != DefaultEvents {
			t.Errorf("%s: events = %d, want %d", name, cfg.Events, DefaultEvents)
		}
		if len(cfg.Sites) == 0 {
			t.Errorf("%s: no sites", name)
		}
	}
	for _, want := range []string{"perl.exp", "gcc.cp", "photon", "eqn", "eon", "troff.ped", "ixx.lay"} {
		if !seen[want] {
			t.Errorf("missing run %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	cfg, ok := ByName("troff.ped")
	if !ok || cfg.Name != "troff" || cfg.Input != "ped" {
		t.Errorf("ByName(troff.ped) = %+v, %v", cfg, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName found a ghost run")
	}
}

func TestAllPredictorsHold2KBudget(t *testing.T) {
	// Section 5's comparison holds every predictor to ~2K target-holding
	// entries (the Cascade predictor's 128-entry filter is its documented
	// extra, and PPM's order-0 component its +1).
	for _, name := range PredictorNames() {
		p, ok := NewPredictor(name)
		if !ok {
			t.Fatalf("NewPredictor(%q) failed", name)
		}
		if p.Name() != name {
			t.Errorf("predictor name %q != label %q", p.Name(), name)
		}
		s, ok := p.(predictor.Sized)
		if !ok {
			t.Errorf("%s does not report its size", name)
			continue
		}
		if e := s.Entries(); e < 2047 || e > 2048+128 {
			t.Errorf("%s holds %d entries, outside the 2K budget window", name, e)
		}
	}
	if _, ok := NewPredictor("nope"); ok {
		t.Error("NewPredictor accepted an unknown name")
	}
}

func TestFigurePredictorSets(t *testing.T) {
	f6 := Figure6Predictors()
	if len(f6) != 7 {
		t.Fatalf("Figure 6 set has %d predictors, want 7", len(f6))
	}
	wantOrder := []string{"BTB", "BTB2b", "GAp", "TC-PIB", "Dpath", "Cascade", "PPM-hyb"}
	for i, p := range f6 {
		if p.Name() != wantOrder[i] {
			t.Errorf("Figure 6 position %d = %s, want %s", i, p.Name(), wantOrder[i])
		}
	}
	f7 := Figure7Predictors()
	if len(f7) != 3 {
		t.Fatalf("Figure 7 set has %d predictors, want 3", len(f7))
	}
	// The suites jobs and checks name resolve to the same line-ups, and
	// every line-up builds each of its predictors under its own label.
	for suite, build := range map[string]func() []predictor.IndirectPredictor{
		"": Figure6Predictors, "fig6": Figure6Predictors, "fig7": Figure7Predictors,
	} {
		names, ok := Lineup(suite)
		preds := build()
		if !ok || len(names) != len(preds) {
			t.Fatalf("Lineup(%q) = %v, %v; want the %d labels of its set", suite, names, ok, len(preds))
		}
		for i, p := range preds {
			if p == nil || p.Name() != names[i] {
				t.Errorf("suite %q position %d = %v, want %s", suite, i, p, names[i])
			}
		}
	}
	for i, p := range ModernPredictors() {
		if want := []string{"ITTAGE", "Cascade-u"}[i]; p == nil || p.Name() != want {
			t.Errorf("modern position %d = %v, want %s", i, p, want)
		}
	}
	if _, ok := Lineup("fig99"); ok {
		t.Error("Lineup accepted an unknown suite")
	}
	if _, err := Predictors([]string{"BTB", "nope"}); err == nil || err.Error() != `unknown predictor "nope"` {
		t.Errorf("Predictors with an unknown name: err = %v", err)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	cfg, _ := ByName("photon")
	cfg.Events = 2000
	a, _ := cfg.Records()
	b, _ := cfg.Records()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("photon trace not deterministic at record %d", i)
		}
	}
}

// TestTable1Characteristics checks that the dynamic run summaries have the
// gross shape Table 1 reports: millions-scale instruction streams dominated
// by non-branch instructions, a small fraction of MT indirect branches, and
// returns matched to calls.
func TestTable1Characteristics(t *testing.T) {
	for _, cfg := range Sized(4000) {
		sum := cfg.Generate(func(trace.Record) {})
		name := cfg.String()
		if sum.MTDynamic == 0 {
			t.Errorf("%s: no MT branches", name)
			continue
		}
		mtShare := float64(sum.MTDynamic) / float64(sum.Instructions)
		if mtShare > 0.2 {
			t.Errorf("%s: MT branches are %.1f%% of instructions — unrealistically dense", name, 100*mtShare)
		}
		if sum.CondDynamic == 0 {
			t.Errorf("%s: no conditional branches", name)
		}
		if sum.MTStatic == 0 || sum.SiteByPC == nil {
			t.Errorf("%s: static site accounting missing", name)
		}
	}
}

// run executes the suite at reduced scale and returns mean misprediction
// ratios per predictor name.
func runSuite(t *testing.T, events int, preds func() []predictor.IndirectPredictor) map[string]float64 {
	t.Helper()
	perPred := map[string][]stats.Counters{}
	for _, cfg := range Sized(events) {
		recs, _ := cfg.Records()
		for _, c := range sim.Run(recs, preds()...) {
			perPred[c.Predictor] = append(perPred[c.Predictor], c)
		}
	}
	out := map[string]float64{}
	for name, runs := range perPred {
		out[name] = stats.MeanRatio(runs)
	}
	return out
}

// TestFigure6Ordering is the headline integration test: at reduced scale,
// the paper's qualitative result must hold — the PPM hybrid achieves the
// lowest mean misprediction ratio, the Cascade predictor is the best
// previously published design, and the BTBs trail far behind.
func TestFigure6Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	means := runSuite(t, 20000, Figure6Predictors)
	if means["PPM-hyb"] >= means["Cascade"] {
		t.Errorf("PPM-hyb mean %.4f not below Cascade %.4f", means["PPM-hyb"], means["Cascade"])
	}
	for _, other := range []string{"GAp", "TC-PIB", "Dpath"} {
		if means["Cascade"] >= means[other] {
			t.Errorf("Cascade mean %.4f not below %s %.4f", means["Cascade"], other, means[other])
		}
	}
	if means["BTB"] < 2*means["PPM-hyb"] {
		t.Errorf("BTB mean %.4f suspiciously close to PPM-hyb %.4f", means["BTB"], means["PPM-hyb"])
	}
	if means["BTB2b"] > means["BTB"] {
		t.Errorf("BTB2b mean %.4f worse than plain BTB %.4f", means["BTB2b"], means["BTB"])
	}
	if means["PPM-hyb"] > 0.20 {
		t.Errorf("PPM-hyb mean %.4f out of the paper's band (~0.09)", means["PPM-hyb"])
	}
}

// TestFigure7Ordering checks the PPM-variant comparison: the hybrid beats
// PIB-only on average, and the PIB-biased protocol closes most of the gap
// on the strongly PIB-correlated runs.
func TestFigure7Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	perPred := map[string]map[string]float64{}
	for _, cfg := range Sized(20000) {
		recs, _ := cfg.Records()
		for _, c := range sim.Run(recs, Figure7Predictors()...) {
			if perPred[c.Predictor] == nil {
				perPred[c.Predictor] = map[string]float64{}
			}
			perPred[c.Predictor][cfg.String()] = c.MispredictionRatio()
		}
	}
	mean := func(name string) float64 {
		var s float64
		for _, v := range perPred[name] {
			s += v
		}
		return s / float64(len(perPred[name]))
	}
	if mean("PPM-hyb") >= mean("PPM-PIB") {
		t.Errorf("hybrid mean %.4f not below PIB-only %.4f", mean("PPM-hyb"), mean("PPM-PIB"))
	}
	// On the PB-correlated showcase (troff.ped) the hybrid must crush the
	// PIB-only variant.
	if h, p := perPred["PPM-hyb"]["troff.ped"], perPred["PPM-PIB"]["troff.ped"]; h >= p/2 {
		t.Errorf("troff.ped: hybrid %.4f vs PIB-only %.4f — PB selection not engaging", h, p)
	}
	// On the strongly PIB-correlated eon, PIB-only must win over hybrid.
	if h, p := perPred["PPM-hyb"]["eon"], perPred["PPM-PIB"]["eon"]; p >= h {
		t.Errorf("eon: PIB-only %.4f not below hybrid %.4f", p, h)
	}
}
