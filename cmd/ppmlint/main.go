// Command ppmlint runs the repository's custom static analyzers — the
// machine-checked simulator invariants — over the packages matching the given
// patterns (default ./...):
//
//	determinism  no wall-clock/global randomness; map iteration order must
//	             not reach output or unsorted slices (//lint:sorted escapes)
//	pow2mask     &(n-1) index masks trace to constructor-validated
//	             power-of-two sizes
//	panicdoc     exported functions that can panic document it; messages use
//	             the `pkg: <reason>` format
//	ifaceassert  IndirectPredictor implementations carry compile-time
//	             var _ I = (*T)(nil) assertions
//	hotpath      no allocation sources in functions reachable from predictor
//	             Predict/Update/Lookup/Observe roots or //ppm:hotpath
//	             annotations (//lint:coldpath escapes cold branches)
//	ifacecall    no loop-carried interface dispatch on hot paths when the
//	             concrete type is provably unique (//lint:dynamic escapes)
//	golifetime   every go statement has a provable termination signal —
//	             context, WaitGroup, or channel receive (//ppm:daemon
//	             annotates process-lifetime goroutines, with a reason)
//	ctxflow      ctx-receiving functions thread their ctx; Background/TODO
//	             banned outside package main (//lint:rootctx escapes
//	             genuine roots)
//	lockorder    per-package mutex-acquisition graph: ordering cycles and
//	             locks held across blocking operations (//lint:lockheld
//	             escapes a justified blocking op)
//	mustclose    Close/Flush/Shutdown/Sync error returns must be checked
//	             or explicitly discarded (//lint:closeerr escapes)
//	falseshare   atomic counter fields may not share a cache line; pad each
//	             to 64 bytes
//
// ppmlint prints each finding as file:line:col: message [analyzer] and exits
// non-zero when there are findings, so `make lint` and CI fail on them. With
// -json, findings stream as NDJSON objects ({file, line, col, analyzer,
// message, escape}) for machine consumers; the escape field carries the
// analyzer's escape-hatch directive so tooling can offer the annotation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/determinism"
	"repro/internal/lint/falseshare"
	"repro/internal/lint/golifetime"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/ifaceassert"
	"repro/internal/lint/ifacecall"
	"repro/internal/lint/lockorder"
	"repro/internal/lint/mustclose"
	"repro/internal/lint/panicdoc"
	"repro/internal/lint/pow2mask"
)

var analyzers = []*lint.Analyzer{
	ctxflow.Analyzer,
	determinism.Analyzer,
	falseshare.Analyzer,
	golifetime.Analyzer,
	hotpath.Analyzer,
	ifaceassert.Analyzer,
	ifacecall.Analyzer,
	lockorder.Analyzer,
	mustclose.Analyzer,
	panicdoc.Analyzer,
	pow2mask.Analyzer,
}

func main() {
	only := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as NDJSON (one {file,line,col,analyzer,message,escape} object per line)")
	flag.Usage = usage
	flag.Parse()

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmlint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppmlint:", err)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			if err := enc.Encode(jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Escape:   d.Escape,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "ppmlint:", err)
				os.Exit(2)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// jsonDiag is the NDJSON shape of one finding. The escape field names the
// analyzer's escape-hatch directive (e.g. "//lint:coldpath <reason>"), or ""
// when the analyzer has none.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Escape   string `json:"escape,omitempty"`
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: ppmlint [-run a,b] [-json] [packages]\n\nanalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}
