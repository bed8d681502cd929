// Package gate is the machinery of the codegen budget gate (cmd/codegate):
// one `go build` over the packages that hold hot functions, with escape,
// inlining and bounds-check diagnostics on; each diagnostic charged to the
// hot function (internal/lint/hotset) whose source span contains it; the
// keyed counts diffed against one checked-in baseline.
//
// An escape or bce key is "<kind>\t<file>\t<function>\t<message>" and its
// budget is a count of diagnostics. An inline key is
// "inline\t<file>\t<function>" and its budget is the compiler's inlining
// cost for the function, so a cost rise fails and a fall is slack; a
// refusal the compiler gives no cost for keys its reason instead
// ("inline\t<file>\t<function>\t<reason>", count 1), so it fails as a new
// key. Keys carry no line numbers, so unrelated edits do not churn the
// budget. Diagnostics outside the hot set — constructors, snapshot
// codecs, handlers, standard-library generic instantiations — are dropped:
// the gate budgets only what runs once per lookup. The drift report is an
// added/removed diff plus the re-baseline hint, so a failing gate names the
// function that gained a diagnostic; under each key above budget it lists
// the file:line of every current diagnostic charged to that key (an inline
// key's is its function's first line).
package gate

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/hotset"
)

// Key kinds.
const (
	Escape = "escape"
	BCE    = "bce"
	Inline = "inline"
)

// Diag is one compiler diagnostic.
type Diag struct {
	// File is the path as the compiler printed it.
	File string
	Line int
	// Msg is the diagnostic text after the position.
	Msg string
}

// diagLine matches one compiler diagnostic: file.go:line:col: message.
var diagLine = regexp.MustCompile(`^(.+\.go):(\d+):(?:\d+:)? (.+)$`)

// Build compiles pkgs with the given -gcflags value and returns every
// parsed compiler diagnostic. The build cache replays compiler diagnostics,
// so a warm cache still yields the full set.
func Build(gcflags string, pkgs []string) ([]Diag, error) {
	args := append([]string{"build", "-gcflags=" + gcflags}, pkgs...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stdout = os.Stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(stderr.Bytes())
		return nil, fmt.Errorf("go build: %v", err)
	}

	var diags []Diag
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := diagLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		diags = append(diags, Diag{File: m[1], Line: line, Msg: m[3]})
	}
	return diags, sc.Err()
}

// Func is one hot function's source span, named as the compiler names it.
type Func struct {
	// File is the path in the compiler's form: relative to the build
	// directory.
	File string
	// Name is the compiler's display name, e.g. "(*PPM).Predict".
	Name string
	// Start and End are the declaration's first and last lines.
	Start, End int
}

// HotFuncs computes each package's hot set and returns the span of every
// hot function, with file paths relative to dir (the directory the build
// runs in), plus the import paths of the packages that have any.
func HotFuncs(pkgs []*lint.Package, dir string) (funcs []Func, hotPkgs []string) {
	for _, pkg := range pkgs {
		pass := &lint.Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info}
		hot, _ := hotset.Compute(pass)
		if len(hot) == 0 {
			continue
		}
		hotPkgs = append(hotPkgs, pkg.ImportPath)
		for _, hf := range hot {
			start, end := pkg.Fset.Position(hf.Decl.Pos()), pkg.Fset.Position(hf.Decl.End())
			file := start.Filename
			if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
			funcs = append(funcs, Func{File: file, Name: hotset.Label(hf.Decl), Start: start.Line, End: end.Line})
		}
	}
	return funcs, hotPkgs
}

// inlineCost matches the refusal reason that carries the compiler's cost.
var inlineCost = regexp.MustCompile(`^function too complex: cost (\d+) exceeds budget \d+$`)

// Attribute charges each diagnostic to the hot function whose span contains
// it and returns, per key, its measure against the budget (the compiler's
// cost for an inline cost key, otherwise the number of diagnostics) and
// the line of each diagnostic charged to it, in line order (the key names
// the file).
// A diagnostic at an inlined call lands on the caller's line, so it is
// charged to the caller. Escapes count in the colon-less form only: under
// -m=2 the "... escapes to heap:" twin opens the flow explanation of the
// same escape. Every hot function without a "can inline" verdict yields an
// inline key at the function's first line, charged the compiler's cost, or
// keyed by the reason when the compiler gives no cost.
func Attribute(diags []Diag, funcs []Func) (counts map[string]int, lines map[string][]int) {
	byFile := map[string][]Func{}
	for _, f := range funcs {
		byFile[f.File] = append(byFile[f.File], f)
	}
	lines = map[string][]int{}
	inlinable := map[Func]bool{}
	refused := map[Func]string{}
	for _, d := range diags {
		f, ok := enclosing(byFile[d.File], d.Line)
		if !ok {
			continue
		}
		if rest, ok := strings.CutPrefix(d.Msg, "can inline "); ok {
			if name, _, _ := strings.Cut(rest, " with cost "); name == f.Name {
				inlinable[f] = true
			}
			continue
		}
		if rest, ok := strings.CutPrefix(d.Msg, "cannot inline "); ok {
			if name, reason, _ := strings.Cut(rest, ": "); name == f.Name {
				refused[f] = reason
			}
			continue
		}
		var k string
		switch {
		case strings.HasSuffix(d.Msg, "escapes to heap") || strings.HasPrefix(d.Msg, "moved to heap: "):
			k = key(Escape, f) + "\t" + d.Msg
		case d.Msg == "Found IsInBounds" || d.Msg == "Found IsSliceInBounds":
			k = key(BCE, f) + "\t" + d.Msg
		default:
			continue
		}
		lines[k] = append(lines[k], d.Line)
	}
	counts = make(map[string]int, len(lines)+len(funcs))
	for k, ls := range lines {
		slices.Sort(ls)
		counts[k] = len(ls)
	}
	for _, f := range funcs {
		if inlinable[f] {
			continue
		}
		reason, ok := refused[f]
		if !ok {
			reason = "no inlining verdict from the compiler"
		}
		k, n := key(Inline, f)+"\t"+reason, 1
		if m := inlineCost.FindStringSubmatch(reason); m != nil {
			k = key(Inline, f)
			n, _ = strconv.Atoi(m[1])
		}
		counts[k] = n
		lines[k] = []int{f.Start}
	}
	return counts, lines
}

func enclosing(funcs []Func, line int) (Func, bool) {
	for _, f := range funcs {
		if f.Start <= line && line <= f.End {
			return f, true
		}
	}
	return Func{}, false
}

func key(kind string, f Func) string {
	return kind + "\t" + f.File + "\t" + f.Name
}

// isCost reports whether k is an inline key budgeted by cost.
func isCost(k string) bool {
	return strings.HasPrefix(k, Inline+"\t") && strings.Count(k, "\t") == 2
}

// Totals sums occurrences per key kind; an inline key counts once, as one
// non-inlinable function, whatever its cost.
func Totals(counts map[string]int) map[string]int {
	totals := map[string]int{}
	for k, n := range counts {
		kind, _, _ := strings.Cut(k, "\t")
		if kind == Inline {
			n = 1
		}
		totals[kind] += n
	}
	return totals
}

// Write renders counts in the stable on-disk form — "<count>\t<key>" lines,
// sorted — under the given "# "-prefixed header lines.
func Write(path string, header []string, counts map[string]int) error {
	var b strings.Builder
	for _, h := range header {
		b.WriteString("# ")
		b.WriteString(h)
		b.WriteString("\n")
	}
	for _, k := range sortedKeys(counts) {
		fmt.Fprintf(&b, "%d\t%s\n", counts[k], k)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// Read parses the on-disk form back into key -> count.
func Read(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, key, ok := strings.Cut(line, "\t")
		c, err := strconv.Atoi(n)
		if !ok || err != nil {
			return nil, fmt.Errorf("%s:%d: malformed baseline line %q", path, i+1, line)
		}
		counts[key] += c
	}
	return counts, nil
}

// Diff compares the current counts and lines (see Attribute) against the
// baseline budget and prints the drift as an added/removed diff: "+n key"
// for diagnostics above budget and "cost A → B key" for an inline cost
// rise (these fail the gate), each followed by the file:line of every
// current diagnostic under that key, since the key alone cannot say which
// one is new; "-n key" for budgeted diagnostics no longer present and
// "cost A → B key" for a cost fall (advisory slack). It reports whether
// the gate failed; on any drift it prints the updateCmd re-baseline hint.
// Failure lines go to errw, advisory lines to outw.
func Diff(tool string, current map[string]int, lines map[string][]int, budget map[string]int, updateCmd string, outw, errw io.Writer) (failed bool) {
	var added, removed []string
	for _, k := range sortedKeys(current) {
		if n := current[k]; n > budget[k] {
			added = append(added, drift(k, budget[k], n))
			_, rest, _ := strings.Cut(k, "\t")
			file, _, _ := strings.Cut(rest, "\t")
			for _, l := range lines[k] {
				added = append(added, fmt.Sprintf("        %s:%d", file, l))
			}
		}
	}
	for _, k := range sortedKeys(budget) {
		if n := current[k]; n < budget[k] {
			removed = append(removed, drift(k, budget[k], n))
		}
	}

	if len(added) > 0 {
		failed = true
		fmt.Fprintf(errw, "%s: diagnostics above baseline:\n", tool)
		for _, l := range added {
			fmt.Fprintln(errw, l)
		}
	}
	if len(removed) > 0 {
		fmt.Fprintf(outw, "%s: note: baseline has slack (budgeted diagnostics no longer present or inline costs fallen):\n", tool)
		for _, l := range removed {
			fmt.Fprintln(outw, l)
		}
	}
	if failed {
		fmt.Fprintf(errw, "%s: fix the new diagnostics or, if intentional, run `%s` and commit the baseline diff\n", tool, updateCmd)
	} else if len(removed) > 0 {
		fmt.Fprintf(outw, "%s: note: run `%s` to tighten the baseline\n", tool, updateCmd)
	}
	return failed
}

// drift renders key k moving from budget b to measure n.
func drift(k string, b, n int) string {
	name := strings.ReplaceAll(k, "\t", ": ")
	switch {
	case !isCost(k):
		return fmt.Sprintf("  %+d  %s", n-b, name)
	case b == 0:
		return fmt.Sprintf("  +1  %s: cost %d", name, n)
	case n == 0:
		return fmt.Sprintf("  -1  %s: cost %d", name, b)
	}
	return fmt.Sprintf("  cost %d → %d  %s", b, n, name)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
