package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mutants"
)

// root is the module root, relative to this package.
const root = "../.."

// TestEveryAnalyzerHasSoleRow holds each registered analyzer to its
// evidence: a Sole row of the mutant table (internal/mutants) that only it
// kills, which `make mutants` re-proves. An analyzer without one goes.
func TestEveryAnalyzerHasSoleRow(t *testing.T) {
	evidence := map[string]string{}
	for _, r := range mutants.Rows {
		if name, ok := r.SoleAnalyzer(); ok {
			evidence[name] = r.Name
		}
	}
	registered := map[string]bool{}
	for _, a := range analyzers {
		registered[a.Name] = true
		if evidence[a.Name] == "" {
			t.Errorf("analyzer %s has no Sole row in internal/mutants", a.Name)
		}
	}
	for name, row := range evidence {
		if !registered[name] {
			t.Errorf("Sole row %s names %s, which ppmlint does not register", row, name)
		}
	}
}

// directive matches a `//lint:<name>` escape comment.
var directive = regexp.MustCompile(`//` + `lint:(\w+)`)

// TestNoOrphanEscapes fails on a `//lint:<name>` escape comment in any Go
// file of the tree when no registered analyzer owns the directive, so
// deleting an analyzer takes its escape comments with it.
func TestNoOrphanEscapes(t *testing.T) {
	owned := map[string]bool{}
	for _, a := range analyzers {
		for _, m := range directive.FindAllStringSubmatch(a.Escape, -1) {
			owned[m[1]] = true
		}
	}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && e.Name() == ".git":
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range directive.FindAllStringSubmatch(line, -1) {
				if !owned[m[1]] {
					t.Errorf("%s:%d: %s escapes no registered analyzer", path, i+1, m[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
