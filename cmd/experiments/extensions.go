package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/twolevel"
)

// ppmSet returns a builder of one PPM per config, in order.
func ppmSet(cfgs []core.Config) func() []predictor.IndirectPredictor {
	return func() []predictor.IndirectPredictor {
		preds := make([]predictor.IndirectPredictor, len(cfgs))
		for i, cfg := range cfgs {
			preds[i] = core.New(cfg)
		}
		return preds
	}
}

// printOrderSweep regenerates the table-size question the paper leaves
// open: PPM accuracy as the order m (and with it the 2^1+...+2^m entry
// budget) varies.
func printOrderSweep(e *env) {
	orders := []int{2, 4, 6, 8, 10, 12}
	cfgs := make([]core.Config, len(orders))
	for i, order := range orders {
		cfgs[i] = core.DefaultConfig(core.Hybrid)
		cfgs[i].Order = order
		cfgs[i].Name = fmt.Sprintf("PPM-hyb-o%d", order)
	}
	m := means(e.simulate(ppmSet(cfgs)))
	t := report.NewTable("Extension: PPM order / table-size sweep (mean mispred %, PPM-hyb)",
		"order", "entries", "mean mispred %")
	for i, order := range orders {
		entries := 1
		for j := 1; j <= order; j++ {
			entries += 1 << j
		}
		t.AddRowf(order, entries, 100*m[cfgs[i].Name])
	}
	t.Render(e.out)
	fmt.Fprintln(e.out)
}

// printPathLengthSweep addresses the sensitivity the paper explicitly did
// not: how TC and GAp accuracy depends on recorded path length.
func printPathLengthSweep(e *env) {
	plens := []int{1, 2, 3, 5, 8, 11}
	m := means(e.simulate(func() []predictor.IndirectPredictor {
		var preds []predictor.IndirectPredictor
		for _, plen := range plens {
			preds = append(preds,
				twolevel.NewTargetCache(twolevel.TargetCacheConfig{
					Name: fmt.Sprintf("TC-p%d", plen), Entries: 2048,
					HistoryBits: uint(2 * plen), BitsPerTarget: 2,
					HistoryStream: history.IndirectBranches,
				}),
				twolevel.NewGAp(twolevel.GApConfig{
					Name: fmt.Sprintf("GAp-p%d", plen), Entries: 2048, PHTs: 2, Assoc: 1,
					PathLength: plen, BitsPerTarget: 2,
					HistoryStream: history.IndirectBranches,
					Indexing:      twolevel.GShare,
				}))
		}
		return preds
	}))
	t := report.NewTable("Extension: TC/GAp path-length sensitivity (mean mispred %)",
		"path length", "TC-PIB", "GAp")
	for _, plen := range plens {
		t.AddRowf(plen, 100*m[fmt.Sprintf("TC-p%d", plen)], 100*m[fmt.Sprintf("GAp-p%d", plen)])
	}
	t.Render(e.out)
	fmt.Fprintln(e.out)
}

// printBIUSweep bounds the BIU, the structure the paper assumed infinite.
func printBIUSweep(e *env) {
	limits := []int{16, 64, 256, 1024, 0}
	labels := make([]string, len(limits))
	cfgs := make([]core.Config, len(limits))
	for i, limit := range limits {
		labels[i] = fmt.Sprint(limit)
		if limit == 0 {
			labels[i] = "unbounded"
		}
		cfgs[i] = core.DefaultConfig(core.Hybrid)
		cfgs[i].BIULimit = limit
		cfgs[i].Name = "PPM-hyb-biu" + labels[i]
	}
	m := means(e.simulate(ppmSet(cfgs)))
	t := report.NewTable("Extension: finite-BIU sensitivity (PPM-hyb mean mispred %)",
		"BIU entries", "mean mispred %")
	for i, label := range labels {
		t.AddRowf(label, 100*m[cfgs[i].Name])
	}
	t.Render(e.out)
	fmt.Fprintln(e.out)
}

// printVariants compares the future-work PPM designs of Section 6 against
// the baseline: tagged Markov tables, per-component confidence, the
// alternative low-order bit select, and the leaky-filtered PPM.
func printVariants(e *env) {
	build := func() []predictor.IndirectPredictor {
		tagged := core.DefaultConfig(core.Hybrid)
		tagged.Tagged = true
		tagged.Name = "PPM-hyb-tagged"
		conf := core.DefaultConfig(core.Hybrid)
		conf.ConfidenceThreshold = 2
		conf.Name = "PPM-hyb-conf2"
		low := core.DefaultConfig(core.Hybrid)
		low.LowSelect = true
		low.Name = "PPM-hyb-lowsel"
		return []predictor.IndirectPredictor{
			core.PaperHyb(),
			core.New(tagged),
			core.New(conf),
			core.New(low),
			core.PaperFiltered(),
		}
	}
	printMeans(e, "Extension: PPM design variants (Section 6 future work)", "variant", build)
}
