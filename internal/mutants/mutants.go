// Package mutants is the checked-in mutant table: the evidence that the
// repository's checks catch what they claim to.
//
// A mutant is one exact old→new text replacement in one file. A row is that
// mutant plus its killers, the checks that must each fail on it. `make
// mutants` (cmd/mutants) applies every row without touching the working
// tree and runs its killers. `go test ./internal/mutants` only matches
// text, so a refactor that makes a row's old text vanish or repeat fails
// tier-1, and the row must be rewritten against the new code, not dropped.
//
// A killer is one of:
//
//	go test [flags] packages   run with -overlay, which swaps in the mutated file
//	ppmcheck [flags]           the mutated ppmcheck -quick, its hunts writing
//	                           into a temp copy of the corpus
//	codegate                   the codegen gate (make gates), in a copy of the tree
//	ppmlint <analyzer>         one ppmlint analyzer, in a copy of the tree
//
// The last two run in a copy because they parse source from disk, which
// -overlay does not reach.
//
// A Sole row is an analyzer's evidence: the analyzer is its one killer, and
// go test ./..., go test -race ./..., codegate and every other analyzer let
// it through. Each ppmlint analyzer keeps its lines only while such a row
// exists (TestEveryAnalyzerHasSoleRow in cmd/ppmlint).
package mutants

import (
	"bytes"
	"fmt"
	"strings"
)

// Row is one mutant and the checks that must fail on it.
type Row struct {
	// Name identifies the row in `make mutants` output; unique.
	Name string
	// File is the mutated file, module-relative with slashes.
	File string
	// Old must occur exactly once in File; the mutant replaces it with New.
	Old, New string
	// Killers are the checks that must each fail on the mutant.
	Killers []string
	// Sole marks an analyzer's evidence row: its one killer is a ppmlint
	// analyzer, and every other check must pass the mutant.
	Sole bool
}

// Kinds of killer: a killer's first word.
const (
	GoTest   = "go"
	PPMCheck = "ppmcheck"
	CodeGate = "codegate"
	PPMLint  = "ppmlint"
)

// Apply returns src with the row's mutation applied, or an error when Old
// does not occur exactly once.
func (r Row) Apply(src []byte) ([]byte, error) {
	if n := bytes.Count(src, []byte(r.Old)); n != 1 {
		return nil, fmt.Errorf("mutant %s: old text occurs %d times in %s, want 1", r.Name, n, r.File)
	}
	return bytes.Replace(src, []byte(r.Old), []byte(r.New), 1), nil
}

// SoleAnalyzer returns the analyzer a Sole row is evidence for: its one
// killer's, when that killer is a ppmlint analyzer.
func (r Row) SoleAnalyzer() (string, bool) {
	if !r.Sole || len(r.Killers) != 1 {
		return "", false
	}
	kind, args, err := ParseKiller(r.Killers[0])
	if err != nil || kind != PPMLint {
		return "", false
	}
	return args[0], true
}

// ParseKiller splits a killer into its kind and arguments: the go test
// arguments after "test", ppmcheck's flags, no arguments for codegate and
// the analyzer name for ppmlint.
func ParseKiller(k string) (kind string, args []string, err error) {
	f := strings.Fields(k)
	if len(f) == 0 {
		return "", nil, fmt.Errorf("empty killer")
	}
	kind, args = f[0], f[1:]
	switch {
	case kind == GoTest && len(args) >= 2 && args[0] == "test":
		return kind, args[1:], nil
	case kind == PPMCheck:
		return kind, args, nil
	case kind == CodeGate && len(args) == 0:
		return kind, nil, nil
	case kind == PPMLint && len(args) == 1:
		return kind, args, nil
	}
	return "", nil, fmt.Errorf("malformed killer %q", k)
}
