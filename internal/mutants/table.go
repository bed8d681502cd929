package mutants

// pow2Test kills every table-size guard row.
const pow2Test = "go test -run TestConstructorsRejectNonPowerOfTwo ./internal/bench"

// guard is the row that drops the power-of-two clause from the size guard
// on expr in file.
func guard(name, file, expr string) Row {
	return Row{Name: "guard-" + name, File: file,
		Old: expr + " <= 0 || " + expr + "&(" + expr + "-1) != 0", New: expr + " <= 0",
		Killers: []string{pow2Test}}
}

// Rows is the mutant table.
var Rows = []Row{
	// Table-size guards: each constructor drops the power-of-two clause, so
	// a non-power-of-two table would alias under its size-1 index mask.
	guard("ittage-base", "internal/ittage/ittage.go", "c.BaseEntries"),
	guard("ittage-bank", "internal/ittage/ittage.go", "c.BankEntries"),
	guard("condbr-bimodal", "internal/condbr/condbr.go", "entries"),
	guard("cbt", "internal/cbt/cbt.go", "cfg.Entries"),
	guard("gap-entries", "internal/twolevel/gap.go", "c.Entries"),
	guard("gap-phts", "internal/twolevel/gap.go", "c.PHTs"),
	guard("pht", "internal/twolevel/pht.go", "entries"),
	guard("dualpath-selectors", "internal/twolevel/dualpath.go", "cfg.Selectors"),
	guard("targetcache", "internal/twolevel/targetcache.go", "cfg.Entries"),
	guard("btb", "internal/btb/btb.go", "entries"),
	guard("filtered", "internal/core/filtered.go", "filterEntries"),
	guard("cascade-filter", "internal/cascade/cascade.go", "cfg.FilterEntries"),

	// The BIU's open-addressed table.
	{Name: "biu-remove-shift-rule", File: "internal/predictor/biu.go",
		Old: "if (j-home)&m >= (j-hole)&m {", New: "if (j-home)&m > (j-hole)&m {",
		Killers: []string{"go test ./internal/predictor"}},
	{Name: "biu-no-backward-shift", File: "internal/predictor/biu.go",
		Old: "for j := (hole + 1) & m; s[j].used;", New: "for j := (hole + 1) & m; false;",
		Killers: []string{"go test ./internal/predictor"}},
	{Name: "biu-mt-bit-not-sticky", File: "internal/predictor/biu.go",
		Old: "\tif mt {\n\t\te.MT = true\n\t}", New: "\te.MT = mt",
		Killers: []string{"go test ./internal/predictor"}},
	{Name: "biu-entry-before-growth", File: "internal/predictor/biu.go",
		Old:     "\tif 2*(len(b.order)+1) > len(b.slots) {\n\t\tb.resize(2 * len(b.slots))\n\t}\n\ts := b.find(pc)\n",
		New:     "\ts := b.find(pc)\n\tif 2*(len(b.order)+1) > len(b.slots) {\n\t\tb.resize(2 * len(b.slots))\n\t}\n",
		Killers: []string{"go test ./internal/predictor"}},

	// Each history family's block path walking the other stream's lane:
	// the shipped line-ups pass, the stream variants diverge.
	{Name: "gap-lane-fixed-pib", File: "internal/twolevel/gap.go",
		Old: "range g.hist.Stream().Lane(b)", New: "range b.PIBIdx",
		Killers: []string{streamVariantTest}},
	{Name: "targetcache-lane-fixed-pib", File: "internal/twolevel/targetcache.go",
		Old: "range t.hist.Stream().Lane(b)", New: "range b.PIBIdx",
		Killers: []string{streamVariantTest}},
	{Name: "dualpath-lane-fixed-mt", File: "internal/twolevel/dualpath.go",
		Old: "range d.short.hist.Stream().Lane(b)", New: "range b.MTIdx",
		Killers: []string{streamVariantTest}},
	{Name: "cascade-lane-fixed-mt", File: "internal/cascade/cascade.go",
		Old: "range c.cfg.Main.Short.HistoryStream.Lane(b)", New: "range b.MTIdx",
		Killers: []string{streamVariantTest}},
	{Name: "ittage-lane-fixed-mt", File: "internal/ittage/ittage.go",
		Old: "range p.hist.Stream().Lane(b)", New: "range b.MTIdx",
		Killers: []string{streamVariantTest}},

	// Prediction lanes: a block path or the engine's record-at-a-time
	// fallback storing something other than what the predictor said.
	{Name: "btb-lane-other-wrong-target", File: "internal/btb/btb.go",
		Old:     "\t\tpreds[j] = predictor.Prediction{Target: target, Predicted: ok}\n\t\tb.Update",
		New:     "\t\tif target != tgts[k] {\n\t\t\ttarget ^= 4\n\t\t}\n\t\tpreds[j] = predictor.Prediction{Target: target, Predicted: ok}\n\t\tb.Update",
		Killers: []string{blockIdentityTest, "ppmcheck -families BTB"}},
	{Name: "cbt-lane-other-wrong-target", File: "internal/cbt/cbt.go",
		Old:     "\t\tpreds[j] = predictor.Prediction{Target: target, Predicted: ok}\n\t\tc.Update",
		New:     "\t\tif target != tgts[k] {\n\t\t\ttarget ^= 4\n\t\t}\n\t\tpreds[j] = predictor.Prediction{Target: target, Predicted: ok}\n\t\tc.Update",
		Killers: []string{blockIdentityTest, "ppmcheck -families CBT"}},
	{Name: "fallback-drops-prediction", File: "internal/sim/block.go",
		Old:     "\t\t\tpreds[j] = predictor.Prediction{Target: target, Predicted: ok}\n\t\t\tj++",
		New:     "\t\t\tpreds[j] = predictor.Prediction{Target: target, Predicted: ok && j > 0}\n\t\t\tj++",
		Killers: []string{blockIdentityTest}},
	{Name: "fallback-corrupts-correct", File: "internal/sim/block.go",
		Old:     "\t\t\tpreds[j] = predictor.Prediction{Target: target, Predicted: ok}\n\t\t\tj++",
		New:     "\t\t\tif target == r.Target {\n\t\t\t\ttarget ^= 4\n\t\t\t}\n\t\t\tpreds[j] = predictor.Prediction{Target: target, Predicted: ok}\n\t\t\tj++",
		Killers: []string{blockIdentityTest}},
	{Name: "cbt-block-ignores-value-lane", File: "internal/cbt/cbt.go",
		Old: "\t\tif vals != nil {", New: "\t\tif false {",
		Killers: []string{"go test ./internal/check", "ppmcheck -families CBT"}},

	// Predictor state.
	{Name: "btb2b-replaces-on-first-miss", File: "internal/btb/btb.go",
		Old: "if e.hyst.OnMiss() {", New: "if true {",
		Killers: []string{"go test ./internal/check", "ppmcheck -families BTB2b"}},
	{Name: "btb-unmasked-index", File: "internal/btb/btb.go",
		Old: "return (pc >> 2) & uint64(len(b.entries)-1)", New: "return pc >> 2",
		Killers: []string{"go test ./internal/btb"}},
	{Name: "btb-unchecked-index", File: "internal/btb/btb.go",
		Old: "b.pending.guess = e.target", New: "b.pending.guess = b.entries[pc>>2].target",
		Killers: []string{CodeGate}},
	{Name: "ppm-observe-skips-folds", File: "internal/core/ppm.go",
		Old:     "\tp.push(r.Target, r.PIBStream())\n}",
		New:     "\tp.pb.Push(r.Target)\n\tif r.PIBStream() {\n\t\tp.pib.Push(r.Target)\n\t}\n}",
		Killers: []string{"ppmcheck -families PPM-hyb"}},
	{Name: "reverse-interleave-bit-short", File: "internal/hashing/hashing.go",
		Old: "bits.Reverse64(x&Mask(n)) >> ((64 - n) & 63)", New: "bits.Reverse64(x&Mask(n)) >> ((63 - n) & 63)",
		Killers: []string{"go test -run TestRefReverseInterleaveAgrees ./internal/check"}},

	// Snapshots.
	{Name: "ppm-walk-skips-fold-rebuild", File: "internal/core/state.go",
		Old: "\t\tp.pibFolds.rebuild(p.pib, p.fold)\n", New: "",
		Killers: []string{"ppmcheck -families PPM-PIB"}},
	{Name: "pht-walk-drops-hysteresis", File: "internal/twolevel/state.go",
		Old: "\t\t\t\te.hyst.Walk(c)\n", New: "",
		Killers: []string{"go test ./internal/state", "ppmcheck -families GAp"}},
	{Name: "codec-stores-while-encoding", File: "internal/state/codec.go",
		Old:     "\t\tc.buf = binary.AppendUvarint(c.buf, *p)\n\tcase decoding:",
		New:     "\t\tc.buf = binary.AppendUvarint(c.buf, *p)\n\t\t*p += uint64(len(c.buf) >> 62)\n\tcase decoding:",
		Killers: []string{"go test -race -run TestSaveAndSizeOfOnlyRead ./internal/state"}},

	// Trace generator.
	{Name: "gap5-threshold-off-by-one", File: "internal/workload/driver.go",
		Old: "gap5 = 5<<50 - 1", New: "gap5 = 5 << 50",
		Killers: []string{"go test -run TestGapDrawMatchesFloat ./internal/workload"}},
	{Name: "generate-keeps-stale-values", File: "internal/workload/driver.go",
		Old: "\t\tclear(g.value)\n", New: "",
		Killers: []string{"go test -run TestBlocksMatchRecordsConversion ./internal/workload"}},

	// Hot methods stay free of dispatch and shared state: the codegen gate
	// reads either as an inlining-cost rise, and the race detector fails
	// the grid that shares the map.
	{Name: "btb-block-interface-call", File: "internal/btb/btb.go",
		Old: "target, ok := b.Predict(pc)", New: "target, ok := predictor.IndirectPredictor(b).Predict(pc)",
		Killers: []string{CodeGate}},
	{Name: "btb-update-map-write", File: "internal/btb/btb.go",
		Old:     "func (b *BTB) Update(pc, target uint64) {\n",
		New:     "var seenUpd = map[uint64]int{}\n\nfunc (b *BTB) Update(pc, target uint64) {\n\tseenUpd[pc]++\n",
		Killers: []string{"go test -race -run TestParallelDeterminism ./cmd/experiments", CodeGate}},

	// Serving goroutines and contexts.
	{Name: "janitor-sleep-loop", File: "internal/serve/serve.go",
		Old:     "\tt := time.NewTicker(interval)\n\tdefer t.Stop()\n\tfor {\n\t\tselect {\n\t\tcase <-s.janitorStop:\n\t\t\treturn\n\t\tcase <-t.C:\n",
		New:     "\tfor {\n\t\t{\n\t\t\ttime.Sleep(interval)\n",
		Killers: []string{"go test -run TestShutdownDrains ./internal/serve"}},
	{Name: "upload-ignores-job-context", File: "internal/serve/serve.go",
		Old: "err := e.ProcessReader(ctx, tr)", New: "err := e.ProcessReader(context.Background(), tr)",
		Killers: []string{"go test -run TestUploadStopsWithItsJob ./internal/serve"}},
	{Name: "reader-ignores-context", File: "internal/sim/stream.go",
		Old: "\t\tif ctx.Err() != nil {\n\t\t\treturn context.Cause(ctx)\n\t\t}\n", New: "",
		Killers: []string{"go test -run TestProcessReaderCancelled ./internal/sim"}},

	// Serving counters each fill a cache line.
	{Name: "counter-pad-dropped", File: "internal/serve/metrics.go",
		Old: "type lineUint64 struct {\n\tatomic.Uint64\n\t_ [56]byte\n}", New: "type lineUint64 struct {\n\tatomic.Uint64\n}",
		Killers: []string{cacheLineTest}},
	{Name: "gauge-bare-atomic", File: "internal/serve/metrics.go",
		Old: "queued    lineInt64 ", New: "queued    atomic.Int64",
		Killers: []string{cacheLineTest}},

	// Evidence for the ppmlint analyzers: each is the one check that fails.
	{Name: "sitediag-unsorted-rows", File: "cmd/sitediag/main.go",
		Old: "sort.Strings(labels)", New: "_ = sort.Strings",
		Killers: []string{"ppmlint determinism"}, Sole: true},
	{Name: "btb-new-undocumented-panic", File: "internal/btb/btb.go",
		Old:     "// New returns a plain tagless BTB with the given number of entries.\n// Panics if entries is not a positive power of two.\n",
		New:     "// New returns a plain tagless BTB with the given number of entries.\n",
		Killers: []string{"ppmlint panicdoc"}, Sole: true},
	{Name: "btb-no-resetter-assertion", File: "internal/btb/btb.go",
		Old: "\t_ predictor.Resetter          = (*BTB)(nil)\n", New: "",
		Killers: []string{"ppmlint ifaceassert"}, Sole: true},
	{Name: "job-list-lock-across-write", File: "internal/serve/serve.go",
		Old:     "\ts.mu.Unlock()\n\tsort.Slice(statuses, func(a, b int) bool { return statuses[a].ID < statuses[b].ID })\n\tw.Header().Set(\"Content-Type\", \"application/json\")\n\twriteJSON(w, statuses)\n}",
		New:     "\tsort.Slice(statuses, func(a, b int) bool { return statuses[a].ID < statuses[b].ID })\n\tw.Header().Set(\"Content-Type\", \"application/json\")\n\twriteJSON(w, statuses)\n\ts.mu.Unlock()\n}",
		Killers: []string{"ppmlint lockorder"}, Sole: true},
	{Name: "snapshot-save-drops-close-error", File: "cmd/ppmctl/session.go",
		Old:     "\t\tdefer func() {\n\t\t\tif err := f.Close(); err != nil {\n\t\t\t\tfmt.Fprintln(stderr, \"ppmctl:\", err)\n\t\t\t}\n\t\t}()",
		New:     "\t\tdefer f.Close()",
		Killers: []string{"ppmlint mustclose"}, Sole: true},
}

const (
	blockIdentityTest = "go test -run TestBlockEngineIdentity ./internal/check"
	streamVariantTest = "go test -run TestStreamVariantBlockIdentity ./internal/check"
	cacheLineTest     = "go test -run TestCountersOwnCacheLines ./internal/serve"
)
