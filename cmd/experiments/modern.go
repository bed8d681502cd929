package main

import (
	"fmt"

	"repro/internal/ittage"
	"repro/internal/predictor"
	"repro/internal/report"
)

// printModern is the "1998 vs modern" comparison: the paper's strongest
// 2K-entry designs (Cascade and the PPM predictor itself) against their
// modern descendants at the same entry budget — ITTAGE (the geometric-
// history evolution of the PPM idea, 1024 base + 4x256 tagged entries) and
// Cascade-u (the 1998 Cascade with ITTAGE's u-bit allocation discipline
// grafted onto its tagged tables). Entry counts are matched, so every
// accuracy difference is attributable to prediction structure: history
// geometry, tagged cascading and allocation policy, not capacity. The bits
// column makes the remaining (modest) storage differences explicit.
func printModern(e *env) {
	results := e.simulate(lineup("Cascade", "PPM-hyb", "Cascade-u", "ITTAGE"))
	printMatrix(e, "1998 vs modern: misprediction ratios (%), matched ~2K-entry budget", results)

	t := report.NewTable("1998 vs modern: budget normalization",
		"predictor", "entries", "bits", "KiB", "mean mispred %")
	m := means(results)
	if len(results) > 0 {
		for _, p := range results[0].Preds {
			s := p.(predictor.Sized)
			c := p.(predictor.Costed)
			t.AddRowf(p.Name(), s.Entries(), c.Bits(),
				fmt.Sprintf("%.1f", float64(c.Bits())/8192), report.Pct(m[p.Name()]))
		}
	}
	t.Render(e.out)
	fmt.Fprintln(e.out)

	// ITTAGE internals: the geometric windows and the state of the
	// allocation machinery after each run, the diagnostics that show the
	// u-bit discipline actually engaging (resets > 0 on long runs).
	it := ittage.Paper()
	fmt.Fprintf(e.out, "ITTAGE geometric windows (items): %v (packed history %d bits)\n",
		it.HistLens(), it.HistoryBits())
	for _, res := range results {
		uaona, resets := res.Preds[3].(*ittage.ITTAGE).UStats()
		fmt.Fprintf(e.out, "  %-12s use-alt counter: %2d  graceful u-resets: %d\n",
			res.Config.String(), uaona, resets)
	}
	fmt.Fprintln(e.out)
}
