package main

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/condbr"
	"repro/internal/report"
	"repro/internal/trace"
)

// printProfile classifies each run's dynamic MT branch population in the
// paper's monomorphic / low-entropy / polymorphic terms (Section 2,
// footnotes 2-3) — the validation that the synthetic models carry the
// population structure the paper attributes to each benchmark.
func printProfile(e *env) {
	pops := make([]analysis.Population, len(e.suite))
	e.pool.Map(len(e.suite), func(i int) {
		blks, _ := e.cache.GetBlocks(e.suite[i])
		p := analysis.NewProfiler()
		for bi := range blks {
			b := &blks[bi]
			for k := 0; k < b.Len(); k++ {
				p.Observe(b.Record(k))
			}
		}
		pops[i] = p.Classify()
	})
	t := report.NewTable("Branch population classification (dynamic MT execution shares, %)",
		"run", "monomorphic", "low-entropy", "polymorphic", "mean entropy (bits)")
	for i, cfg := range e.suite {
		pop := pops[i]
		t.AddRowf(cfg.String(),
			100*pop.MonomorphicShare, 100*pop.LowEntropyShare, 100*pop.PolymorphicShare,
			pop.MeanEntropy)
	}
	t.Render(e.out)
	fmt.Fprintln(e.out)
}

// printCond runs the Section 3 conditional-branch predictors over the
// suite's conditional stream: the PPM-for-directions algorithm the paper
// uses to introduce the concept, against the classic bimodal and GAg.
func printCond(e *env) {
	type accT struct{ miss, total uint64 }
	accs := make([][3]accT, len(e.suite))
	e.pool.Map(len(e.suite), func(i int) {
		blks, _ := e.cache.GetBlocks(e.suite[i])
		bi := condbr.NewBimodal(2048)
		ga := condbr.NewGAg(12)
		pp := condbr.NewPPM(8)
		var acc [3]accT
		for n := range blks {
			b := &blks[n]
			for k := 0; k < b.Len(); k++ {
				r := b.Record(k)
				if r.Class != trace.CondDirect {
					continue
				}
				preds := [3]bool{bi.Predict(r.PC), ga.Predict(), pp.Predict()}
				for j, p := range preds {
					acc[j].total++
					if p != r.Taken {
						acc[j].miss++
					}
				}
				bi.Update(r.PC, r.Taken)
				ga.Update(r.Taken)
				pp.Update(r.Taken)
			}
		}
		accs[i] = acc
	})
	t := report.NewTable("Section 3 substrate: conditional branch direction predictors (mispred %)",
		"run", "bimodal-2K", "GAg-12", "PPM-cond(8)")
	var sums [3]accT
	for i, cfg := range e.suite {
		row := []string{cfg.String()}
		for j := range accs[i] {
			row = append(row, report.Pct(float64(accs[i][j].miss)/float64(accs[i][j].total)))
			sums[j].miss += accs[i][j].miss
			sums[j].total += accs[i][j].total
		}
		t.AddRow(row...)
	}
	row := []string{"TOTAL"}
	for j := range sums {
		row = append(row, report.Pct(float64(sums[j].miss)/float64(sums[j].total)))
	}
	t.AddRow(row...)
	t.Render(e.out)
	fmt.Fprintln(e.out, "(runs with CondNoise 1 are data-random: every predictor converges to the taken bias)")
	fmt.Fprintln(e.out)
}
