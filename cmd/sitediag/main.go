// Command sitediag breaks a run's mispredictions down by site population
// and predictor — the tool used to attribute accuracy differences between
// predictor designs to the workload structures that cause them.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	run := flag.String("run", "photon", "benchmark run name")
	events := flag.Int("events", 60000, "dispatch events")
	flag.Parse()

	cfg, ok := bench.ByName(*run)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown run %q\n", *run)
		os.Exit(1)
	}
	cfg.Events = *events
	blks, sum := cfg.Blocks()
	prof := analysis.NewProfiler()
	for k := range blks {
		for i := range blks[k].Len() {
			prof.Observe(blks[k].Record(i))
		}
	}

	// One engine replays the run through every family; each block's
	// prediction lanes are tallied by the site population of the dispatch.
	names := bench.PredictorNames()
	preds := make([]predictor.IndirectPredictor, 0, len(names))
	for _, n := range names {
		p, _ := bench.NewPredictor(n)
		preds = append(preds, p)
	}
	eng := sim.New(preds...)
	perLabel := map[string][]stats.Counters{}
	for k := range blks {
		b := &blks[k]
		eng.ProcessBlock(b)
		for i := range names {
			for j, p := range eng.Predictions(i) {
				pos := b.MTIdx[j]
				label := sum.SiteByPC[b.PC[pos]]
				cs := perLabel[label]
				if cs == nil {
					cs = make([]stats.Counters, len(names))
					perLabel[label] = cs
				}
				cs[i].Record(p.Predicted && p.Target == b.Target[pos], p.Predicted)
			}
		}
	}
	var labels []string
	for l := range perLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Printf("%-18s %10s", "population", "execs")
	for _, n := range names {
		if len(n) > 8 {
			n = n[:8]
		}
		fmt.Printf(" %8s", n)
	}
	fmt.Println()
	for _, l := range labels {
		cs := perLabel[l]
		fmt.Printf("%-18s %10d", l, cs[0].Lookups)
		for i := range names {
			fmt.Printf(" %8.2f", 100*cs[i].MispredictionRatio())
		}
		fmt.Println()
	}

	// Per-population structure, in the paper's classification terms.
	type agg struct {
		execs                  uint64
		mono, lowent, poly     int
		entropyW, transitionsW float64
	}
	byLabel := map[string]*agg{}
	for _, b := range prof.Profiles() {
		label := sum.SiteByPC[b.PC]
		a := byLabel[label]
		if a == nil {
			a = &agg{}
			byLabel[label] = a
		}
		a.execs += b.Executions
		a.entropyW += b.Entropy * float64(b.Executions)
		a.transitionsW += b.TransitionRate * float64(b.Executions)
		switch {
		case b.Monomorphic():
			a.mono++
		case b.LowEntropy():
			a.lowent++
		default:
			a.poly++
		}
	}
	fmt.Printf("\n%-18s %8s %6s %6s %6s %10s %10s\n",
		"population", "execs", "mono", "lowE", "poly", "entropy", "transition")
	for _, l := range labels {
		a := byLabel[l]
		if a == nil || a.execs == 0 {
			continue
		}
		fmt.Printf("%-18s %8d %6d %6d %6d %10.2f %9.1f%%\n",
			l, a.execs, a.mono, a.lowent, a.poly,
			a.entropyW/float64(a.execs), 100*a.transitionsW/float64(a.execs))
	}
}
