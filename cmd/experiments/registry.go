package main

import (
	"repro/internal/bench"
)

// experiment is one reproducible analysis: a stable name, the group that
// -all/-ext selects, a one-line description for -list, and the runner. The
// registry is the single canonical entry point into every table and figure
// this command can produce, so a new analysis is added by appending a row —
// not by threading another flag through main. Runners receive the execution
// env (writer, suite, trace cache, worker pool), make at most one pass over
// the suite (TestOnePassPerExperiment), and must render only after their
// parallel cells have completed, in canonical suite order, so output is
// identical at every -j.
type experiment struct {
	name  string
	group string // "paper" (-all) or "extension" (-ext)
	doc   string
	run   func(e *env)
}

// experiments lists every analysis in canonical output order: the paper's
// own tables and figures first, then the extensions.
var experiments = []experiment{
	{"table1", "paper", "Table 1: dynamic benchmark characteristics", printTable1},
	{"fig1", "paper", "Figure 1 worked example (3rd-order conditional PPM)", printFigure1},
	{"fig6", "paper", "Figure 6: 7 predictors x all runs, 2K entries",
		func(e *env) {
			printMatrix(e, "Figure 6: misprediction ratios (%), 2K-entry predictors", e.simulate(bench.Figure6Predictors))
		}},
	{"fig7", "paper", "Figure 7: PPM variants",
		func(e *env) {
			printMatrix(e, "Figure 7: misprediction ratios (%), PPM variants", e.simulate(bench.Figure7Predictors))
		}},
	{"components", "paper", "Section 5: Markov component access/miss distribution", printComponents},
	{"oracle", "paper", "Section 5: oracle PIB-history analysis", printOracle},

	{"sweep", "extension", "PPM order/table-size sweep", printOrderSweep},
	{"pathlen", "extension", "TC/GAp path-length sensitivity", printPathLengthSweep},
	{"biu", "extension", "finite-BIU sensitivity", printBIUSweep},
	{"variants", "extension", "PPM design variants (future work)", printVariants},
	{"ipc", "extension", "IPC impact on a wide-issue machine", printIPC},
	{"tagged", "extension", "tagless vs tagged predictor versions", printTagged},
	{"cbt", "extension", "Case Block Table vs value availability", printCBT},
	{"filterpolicy", "extension", "strict vs leaky Cascade filter", printFilterPolicy},
	{"profile", "extension", "per-run branch population classification", printProfile},
	{"cond", "extension", "Section 3 substrate: conditional direction predictors", printCond},
	{"budget", "extension", "hardware budget accounting in entries and bits", printBudget},
	{"multi", "extension", "Section 4 alternative: multi-target majority-vote Markov states", printMulti},
	{"modern", "extension", "1998 vs modern: ITTAGE and Cascade-u at the paper's 2K-entry budget", printModern},
	{"warmstart", "extension", "snapshot/restore warm-start continuation (see -savestate/-warmstart)", printWarmstart},
}
