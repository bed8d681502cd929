// Command codegate is the codegen budget gate over the hot set: the
// functions internal/lint/hotset reaches from the per-lookup roots, where
// the modeled hardware has no heap, no bounds-check branch and no call
// frame. It loads the module once, derives the packages that hold hot
// functions, compiles exactly those with one
// `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'`, charges every heap
// escape, surviving bounds check and inlining refusal to the hot function
// that contains it, and diffs the keyed counts against
// internal/lint/codegen.baseline (see internal/lint/gate).
//
// A change that adds one of those to a hot function fails with an
// added/removed diff naming the function, and under each key above budget
// the file:line of every diagnostic charged to it. An inlining refusal is
// budgeted by the compiler's cost: a rise fails as "cost A → B", a fall is
// slack. Intentional changes are recorded with `make gates-update`
// (codegate -update) and reviewed as a baseline diff.
//
// Usage:
//
//	codegate [-update]
//
// Run it from the module root: the baseline path and the file names in its
// keys are relative to it.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/gate"
)

const (
	baseline = "internal/lint/codegen.baseline"
	gcflags  = "-m=2 -d=ssa/check_bce/debug=1"
)

func main() {
	update := flag.Bool("update", false, "rewrite the baseline from the current tree instead of gating")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: codegate [-update]")
		os.Exit(2)
	}

	current, lines, npkgs, err := measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, "codegate:", err)
		os.Exit(2)
	}
	t := gate.Totals(current)
	summary := fmt.Sprintf("%d escapes, %d bounds checks, %d non-inlinable functions across %d hot packages",
		t[gate.Escape], t[gate.BCE], t[gate.Inline], npkgs)

	if *update {
		header := []string{
			"Codegen budget for the hot set (internal/lint/hotset), one line per key:",
			"<count>\\t<escape|bce>\\t<file>\\t<function>\\t<compiler message>, or",
			"<cost>\\tinline\\t<file>\\t<function> for a function the compiler will not inline.",
			"Generated by `make gates-update`; checked by `make gates`.",
		}
		if err := gate.Write(baseline, header, current); err != nil {
			fmt.Fprintln(os.Stderr, "codegate:", err)
			os.Exit(2)
		}
		fmt.Printf("codegate: wrote %s to %s\n", summary, baseline)
		return
	}

	budget, err := gate.Read(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "codegate: %v (run `make gates-update` to create the baseline)\n", err)
		os.Exit(2)
	}
	if gate.Diff("codegate", current, lines, budget, "make gates-update", os.Stdout, os.Stderr) {
		os.Exit(1)
	}
	fmt.Printf("codegate: %s within budget\n", summary)
}

// measure loads the module, builds its hot packages once with the
// diagnostic flags, and returns the attributed per-key counts and lines and
// the number of packages built.
func measure() (map[string]int, map[string][]int, int, error) {
	pkgs, err := lint.Load("", "./...")
	if err != nil {
		return nil, nil, 0, err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, nil, 0, err
	}
	funcs, hotPkgs := gate.HotFuncs(pkgs, cwd)
	diags, err := gate.Build(gcflags, hotPkgs)
	if err != nil {
		return nil, nil, 0, err
	}
	counts, lines := gate.Attribute(diags, funcs)
	return counts, lines, len(hotPkgs), nil
}
