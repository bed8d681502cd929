// Command ppmsim runs indirect-branch predictors over a benchmark run or a
// recorded trace file and reports misprediction statistics:
//
//	ppmsim -bench troff.ped                        # paper predictors on one run
//	ppmsim -bench photon -predictors PPM-hyb,BTB   # chosen predictors
//	ppmsim -trace run.ibt                          # from a trace file
//	ppmsim -bench eon -events 200000 -components   # PPM component split
//	ppmsim -list                                   # available runs/predictors
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// errUsage reports a command line that names nothing to simulate or fails
// to parse; the flag set has already printed the usage.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		os.Exit(2)
	}
}

// run parses args and writes the report for one benchmark run or trace
// file to out. A bad command line returns errUsage; a failure once the
// simulation has started exits through fatal.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppmsim", flag.ContinueOnError)
	var (
		benchName  = fs.String("bench", "", "benchmark run name (see -list)")
		traceFile  = fs.String("trace", "", "IBT2 trace file to simulate instead of a benchmark")
		events     = fs.Int("events", bench.DefaultEvents, "dispatch events when generating a benchmark")
		predNames  = fs.String("predictors", "", "comma-separated predictor names (default: the Figure 6 set)")
		components = fs.Bool("components", false, "print the PPM Markov component distribution")
		list       = fs.Bool("list", false, "list benchmarks and predictors")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}

	if *list {
		fmt.Fprintln(out, "benchmark runs:")
		for _, cfg := range bench.Suite() {
			fmt.Fprintf(out, "  %s\n", cfg.String())
		}
		fmt.Fprintln(out, "predictors:")
		for _, n := range bench.PredictorNames() {
			fmt.Fprintf(out, "  %s\n", n)
		}
		return nil
	}

	preds := buildPredictors(*predNames)
	eng := sim.New(preds...)

	var source string
	switch {
	case *traceFile != "":
		source = *traceFile
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close() //lint:closeerr read-only trace input; Close cannot lose data
		r, err := trace.NewReader(f)
		if err != nil {
			fatal(err)
		}
		if err := eng.ProcessReader(context.Background(), r); err != nil {
			fatal(err)
		}
	case *benchName != "":
		cfg, ok := bench.ByName(*benchName)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q (try -list)", *benchName))
		}
		cfg.Events = *events
		source = cfg.String()
		blks, _ := cfg.Blocks()
		eng.ProcessBlocks(blks)
	default:
		fs.Usage()
		return errUsage
	}

	fmt.Fprintf(out, "source: %s (%d branch records, %.2fM instructions)\n\n",
		source, eng.Records(), float64(eng.Instructions())/1e6)
	t := report.NewTable("", "predictor", "mispred %", "wrong", "no-pred", "MT branches")
	for _, c := range eng.Counters() {
		t.AddRowf(c.Predictor, 100*c.MispredictionRatio(), c.Wrong, c.NoPrediction, c.Lookups)
	}
	t.Render(out)

	if hits, total := eng.RAS().Accuracy(); total > 0 {
		fmt.Fprintf(out, "\nRAS returns: %d/%d correct (%.2f%%)\n", hits, total, 100*float64(hits)/float64(total))
	}

	if *components {
		for _, p := range preds {
			ppm, ok := p.(*core.PPM)
			if !ok {
				continue
			}
			st := ppm.Stats()
			var total uint64
			for _, a := range st.Accesses {
				total += a
			}
			if total == 0 {
				continue
			}
			fmt.Fprintf(out, "\n%s component access distribution:\n", ppm.Name())
			for order := ppm.Order(); order >= 0; order-- {
				if st.Accesses[order] == 0 {
					continue
				}
				fmt.Fprintf(out, "  order %2d: %6.2f%% accesses, %d misses\n",
					order, 100*float64(st.Accesses[order])/float64(total), st.Misses[order])
			}
			if none := st.Accesses[ppm.Order()+1]; none > 0 {
				fmt.Fprintf(out, "  none    : %6.2f%%\n", 100*float64(none)/float64(total))
			}
		}
	}
	return nil
}

func buildPredictors(spec string) []predictor.IndirectPredictor {
	names := bench.PredictorNames()[:7] // the Figure 6 set
	if spec != "" {
		names = strings.Split(spec, ",")
	}
	var preds []predictor.IndirectPredictor
	for _, n := range names {
		n = strings.TrimSpace(n)
		p, ok := bench.NewPredictor(n)
		if !ok {
			fatal(fmt.Errorf("unknown predictor %q (try -list)", n))
		}
		preds = append(preds, p)
	}
	return preds
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppmsim:", err)
	os.Exit(1)
}
