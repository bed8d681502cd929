package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cascade"
	"repro/internal/cbt"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/pipeline"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/twolevel"
)

// printIPC converts the Figure 6 accuracy comparison into the front-end
// timing terms the paper's introduction argues in: IPC on a 4-wide machine
// with a 10-cycle misprediction penalty, counting only indirect-branch
// mispredictions (conditional prediction assumed perfect to isolate the
// effect under study).
func printIPC(e *env) {
	cfg := pipeline.Default4Wide
	names := []string{"BTB", "TC-PIB", "Cascade", "PPM-hyb"}
	t := report.NewTable(
		fmt.Sprintf("Motivation: IPC impact of indirect misprediction (%d-wide, %d-cycle refill)",
			cfg.Width, cfg.MispredictPenalty),
		append([]string{"run", "perfect-IPC"}, append(names, "PPM speedup vs BTB")...)...)
	for _, res := range e.simulate(lineup(names...)) {
		sum := res.Summary
		row := []string{res.Config.String(), fmt.Sprintf("%.2f", cfg.Estimate(sum.Instructions, 0).IPC)}
		var btbRes, ppmRes pipeline.Result
		for i, c := range res.Counters {
			ipc := cfg.Estimate(sum.Instructions, c.Mispredictions())
			row = append(row, fmt.Sprintf("%.2f", ipc.IPC))
			switch names[i] {
			case "BTB":
				btbRes = ipc
			case "PPM-hyb":
				ppmRes = ipc
			}
		}
		row = append(row, fmt.Sprintf("%.2fx", pipeline.Speedup(btbRes, ppmRes)))
		t.AddRow(row...)
	}
	t.Render(e.out)
	fmt.Fprintln(e.out)
}

// printTagged runs the tagged-versions study the paper lists as future
// work ("we need to consider tagged versions of all the predictors"),
// comparing each tagless design with its tagged counterpart.
func printTagged(e *env) {
	build := func() []predictor.IndirectPredictor {
		taggedTC := twolevel.NewTargetCache(twolevel.TargetCacheConfig{
			Name: "TC-tagged", Entries: 2048, HistoryBits: 11, BitsPerTarget: 2,
			HistoryStream: history.IndirectBranches, Tagged: true,
		})
		taggedGAp := twolevel.NewGAp(twolevel.GApConfig{
			Name: "GAp-tagged", Entries: 2048, PHTs: 2, Assoc: 4, Tagged: true,
			PathLength: 5, BitsPerTarget: 2,
			HistoryStream: history.IndirectBranches, Indexing: twolevel.GShare,
		})
		taggedPPMCfg := core.DefaultConfig(core.Hybrid)
		taggedPPMCfg.Tagged = true
		taggedPPMCfg.Name = "PPM-tagged"
		tc, _ := bench.NewPredictor("TC-PIB")
		gap, _ := bench.NewPredictor("GAp")
		ppm, _ := bench.NewPredictor("PPM-hyb")
		return []predictor.IndirectPredictor{
			tc, taggedTC, gap, taggedGAp, ppm, core.New(taggedPPMCfg),
		}
	}
	printMeans(e, "Extension: tagless vs tagged predictor versions (mean mispred %)", "predictor", build)
}

// printCBT evaluates the Case Block Table of Related Work at several
// value-availability levels against the PPM, quantifying the limitation
// the paper cites (the switch value is often unknown at fetch).
func printCBT(e *env) {
	avails := []float64{1.0, 0.75, 0.5, 0.0}
	m := means(e.simulate(func() []predictor.IndirectPredictor {
		var preds []predictor.IndirectPredictor
		for _, avail := range avails {
			preds = append(preds, cbt.New(cbt.Config{
				Entries: 2048, Availability: avail, Seed: 0xCB7,
			}))
		}
		return append(preds, core.PaperHyb())
	}))
	t := report.NewTable("Related work: Case Block Table vs value availability (mean mispred %)",
		"predictor", "mean mispred %")
	for _, avail := range avails {
		name := fmt.Sprintf("CBT(p=%.2f)", avail)
		t.AddRowf(name, 100*m[name])
	}
	t.AddRowf("PPM-hyb (reference)", 100*m["PPM-hyb"])
	t.Render(e.out)
	fmt.Fprintln(e.out, "(the CBT only helps MT jmp switches; MT jsr calls have no switch value)")
	fmt.Fprintln(e.out)
}

// printFilterPolicy compares the strict and leaky Cascade filter
// disciplines of Driesen & Hölzle.
func printFilterPolicy(e *env) {
	build := func() []predictor.IndirectPredictor {
		leaky := cascade.Paper()
		strictCfg := cascade.Config{
			Name:          "Cascade-strict",
			FilterEntries: 128,
			Policy:        cascade.Strict,
			Main: twolevel.DualPathConfig{
				Selectors: 1024,
				Short: twolevel.GApConfig{
					Entries: 1024, PHTs: 1, Assoc: 4, Tagged: true,
					PathLength: 4, BitsPerTarget: 6, HistoryBits: 24,
					HistoryStream: history.MTIndirectBranches,
					Indexing:      twolevel.ReverseInterleave,
				},
				Long: twolevel.GApConfig{
					Entries: 1024, PHTs: 1, Assoc: 4, Tagged: true,
					PathLength: 6, BitsPerTarget: 4, HistoryBits: 24,
					HistoryStream: history.MTIndirectBranches,
					Indexing:      twolevel.ReverseInterleave,
				},
			},
		}
		return []predictor.IndirectPredictor{leaky, cascade.New(strictCfg)}
	}
	printMeans(e, "Extension: Cascade filter policy (mean mispred %)", "policy", build)
}
