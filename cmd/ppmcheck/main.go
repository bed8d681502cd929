// Command ppmcheck is the simulator's correctness harness: it hunts for
// disagreements between the optimized predictors and their naive references,
// between the block engine and the record engine, and between
// snapshot/restore-at-every-cut chains and uncut runs; it replays the
// checked-in regression corpus, runs the metamorphic properties (caching,
// worker count, serving and session granularity must never change a result
// byte), and sweeps fault injection across the trace decoder and the upload
// path.
//
//	ppmcheck -quick              the bounded CI pass (corpus + small sweeps)
//	ppmcheck -seeds 500          a long differential hunt
//	ppmcheck -families PPM-hyb   run each hunt over the listed families it covers
//	ppmcheck -corpus DIR         corpus location (default internal/check/testdata/corpus)
//
// The three hunts are the rows of check.Hunts, run by one loop; -families
// runs each row over the listed families it covers, skips a row that
// covers none of them, and rejects a name no row covers as a usage error.
// When a hunt finds a divergence, ppmcheck minimizes the failing trace
// with delta debugging, writes it into the corpus as a new seed
// (<kind>-<family>-seed<N>, kind diff, blocks or state), and exits nonzero:
// the bug becomes a regression test before it is even fixed.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/check"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "bounded pass: corpus replay, small differential/metamorphic/fault sweeps")
		seeds    = flag.Int("seeds", 50, "random seeds per family for the differential hunt")
		events   = flag.Int("events", 2000, "records per generated trace")
		families = flag.String("families", "", "comma-separated predictor families; each hunt runs those it covers (default all)")
		corpus   = flag.String("corpus", "internal/check/testdata/corpus", "regression-seed corpus directory")
	)
	flag.Parse()
	huntFams, err := huntFamilies(*families)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmcheck:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *quick {
		*seeds, *events = 6, 800
	}
	ok := replayCorpus(*corpus)
	for i, h := range check.Hunts {
		if len(huntFams[i]) > 0 {
			ok = hunt(h, huntFams[i], *seeds, *events, *corpus) && ok
		}
	}
	ok = run("metamorphic", check.Metamorphic(1, *events)) && ok
	ok = run("truncation sweep", check.TruncationSweep(check.RandomRecords(9, 60), nil)) && ok
	ok = run("errafter sweep", check.ErrAfterSweep(check.RandomRecords(9, 60))) && ok
	ok = uploadSweep() && ok
	if !ok {
		os.Exit(1)
	}
	fmt.Println("ppmcheck: all checks passed")
}

// huntFamilies returns, for each row of check.Hunts, the families the row
// runs: every family it covers when list is empty, otherwise those of the
// comma-separated list it covers, in list order. A listed family that no
// row covers is an error.
func huntFamilies(list string) ([][]string, error) {
	fams := make([][]string, len(check.Hunts))
	if list == "" {
		for i, h := range check.Hunts {
			fams[i] = h.Families
		}
		return fams, nil
	}
	for _, fam := range strings.Split(list, ",") {
		covered := false
		for i, h := range check.Hunts {
			if slices.Contains(h.Families, fam) {
				fams[i] = append(fams[i], fam)
				covered = true
			}
		}
		if !covered {
			return nil, fmt.Errorf("no hunt covers predictor family %q", fam)
		}
	}
	return fams, nil
}

// run reports one named check.
func run(name string, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", name, err)
		return false
	}
	fmt.Printf("ok   %s\n", name)
	return true
}

// replayCorpus re-runs every checked-in regression seed.
func replayCorpus(dir string) bool {
	seeds, err := check.LoadSeeds(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL corpus: %v\n", err)
		return false
	}
	ok := true
	for _, e := range seeds {
		if err := check.ReplaySeed(e); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL corpus seed %s: %v\n", e.Seed.Name, err)
			ok = false
		}
	}
	if ok {
		fmt.Printf("ok   corpus (%d seeds)\n", len(seeds))
	}
	return ok
}

// hunt runs one row of check.Hunts over randomized traces for every
// family; each divergence is minimized and written back into the corpus.
func hunt(h check.Hunt, fams []string, seeds, events int, corpusDir string) bool {
	ok := true
	for _, fam := range fams {
		found, err := h.Search(fam, seeds, events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s %s: %v\n", h.Label, fam, err)
			return false
		}
		for _, f := range found {
			ok = false
			fmt.Fprintf(os.Stderr, "FAIL %s %s (%s seed %d): %s\n  minimized to %d records\n", h.Label, fam, f.Stream, f.Seed, f.Detail, len(f.Recs))
			s := h.CorpusSeed(f)
			if err := check.WriteSeed(corpusDir, s, f.Recs); err != nil {
				fmt.Fprintf(os.Stderr, "  (could not write corpus seed: %v)\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "  repro written to %s/%s.{json,ibt2}\n", corpusDir, s.Name)
			}
		}
	}
	if ok {
		fmt.Printf("ok   %s (%d families x %d seeds x 2 streams)\n", h.Label, len(fams), seeds)
	}
	return ok
}

// uploadSweep runs the HTTP upload truncation sweep.
func uploadSweep() bool {
	report, err := check.UploadTruncationSweep(check.RandomRecords(9, 40), "BTB")
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL upload sweep: %v\n", err)
		return false
	}
	fmt.Printf("ok   upload sweep (%d clean prefixes, %d rejected cuts, 0 leaked jobs)\n", report.Accepted, report.Rejected)
	return true
}
