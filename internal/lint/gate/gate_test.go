package gate

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixtureSrc is a small hot-set package: Lookup is an annotated root that
// calls a //go:noinline helper (hot by reachability) and a //ppm:coldpath
// helper whose body the compiler inlines into Lookup. New and Snapshot are
// never reached from a root. Each diagnostic site carries a marker comment
// so the hand-built diagnostics below follow the source when it moves.
const fixtureSrc = `package hot

type Table struct {
	slots []uint64
}

// New builds a table.
func New(n int) *Table {
	return &Table{slots: make([]uint64, n)} // @ctor
}

// Lookup is a per-lookup root.
//
//ppm:hotpath
func (t *Table) Lookup(pc uint64) uint64 {
	r := t.recent(4) // @call
	return t.slots[pc&uint64(len(t.slots)-1)] + r[0] + t.ensureSlow(pc) // @index
}

// ensureSlow is a hot helper kept out of line.
//
//go:noinline
func (t *Table) ensureSlow(pc uint64) uint64 {
	return t.slots[pc] // @slow
}

// recent returns scratch history.
//
//ppm:coldpath undersized scratch is reallocated
func (t *Table) recent(n int) []uint64 {
	return make([]uint64, n) // @recent
}

// Snapshot copies the table.
func (t *Table) Snapshot() []uint64 {
	return append([]uint64(nil), t.slots...) // @snap
}
`

const fixtureFile = "/mod/internal/hot/hot.go"

// fixtureFuncs parses and type-checks src as the fixture package and
// returns its hot-function spans relative to the module root.
func fixtureFuncs(t *testing.T, src string) []Func {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, fixtureFile, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	files := []*ast.File{f}
	tpkg, err := (&types.Config{}).Check("repro/internal/hot", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &lint.Package{ImportPath: "repro/internal/hot", Fset: fset, Files: files, Types: tpkg, Info: info}
	funcs, hotPkgs := HotFuncs([]*lint.Package{pkg}, "/mod")
	if !reflect.DeepEqual(hotPkgs, []string{"repro/internal/hot"}) {
		t.Fatalf("hot packages = %v", hotPkgs)
	}
	return funcs
}

// at returns a diagnostic on the line of src carrying marker.
func at(t *testing.T, src, marker, msg string) Diag {
	t.Helper()
	return Diag{File: "internal/hot/hot.go", Line: lineOf(t, src, "// "+marker), Msg: msg}
}

// fixtureDiags is what `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'`
// would print for src, reduced to the lines the gate reads.
func fixtureDiags(t *testing.T, src string) []Diag {
	return []Diag{
		at(t, src, "@ctor", "make([]uint64, n) escapes to heap"),
		at(t, src, "@ctor", "&Table{...} escapes to heap"),
		at(t, src, "@snap", "append([]uint64(nil), t.slots...) escapes to heap"),
		at(t, src, "@recent", "make([]uint64, n) escapes to heap"),
		// recent's make, inlined into Lookup, reported at the call site;
		// -m=2 prints the colon-terminated flow opener before the verdict.
		at(t, src, "@call", "make([]uint64, n) escapes to heap:"),
		at(t, src, "@call", "make([]uint64, n) escapes to heap"),
		at(t, src, "@call", "inlining call to (*Table).recent"),
		at(t, src, "@index", "Found IsInBounds"),
		at(t, src, "@slow", "Found IsInBounds"),
		at(t, src, "@slow", "Found IsInBounds"),
		at(t, src, "@slow", "moved to heap: pc"),
		{File: "/usr/local/go/src/net/http/mapping.go", Line: 20, Msg: "map[go.shape.string]go.shape.*uint8{} escapes to heap"},
	}
}

func TestAttribute(t *testing.T) {
	got, lines := Attribute(fixtureDiags(t, fixtureSrc), fixtureFuncs(t, fixtureSrc))
	want := map[string]int{
		// The inlined callee's make is charged to the caller, once.
		"escape\tinternal/hot/hot.go\t(*Table).Lookup\tmake([]uint64, n) escapes to heap": 1,
		"bce\tinternal/hot/hot.go\t(*Table).Lookup\tFound IsInBounds":                     1,
		// The //go:noinline hot helper keeps its diagnostics, counted.
		"bce\tinternal/hot/hot.go\t(*Table).ensureSlow\tFound IsInBounds":     2,
		"escape\tinternal/hot/hot.go\t(*Table).ensureSlow\tmoved to heap: pc": 1,
		// Neither function has a "can inline" verdict in the stream.
		"inline\tinternal/hot/hot.go\t(*Table).Lookup\tno inlining verdict from the compiler":     1,
		"inline\tinternal/hot/hot.go\t(*Table).ensureSlow\tno inlining verdict from the compiler": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keys:\n%s\nwant:\n%s", dump(got), dump(want))
	}
	// Each key keeps the line of every diagnostic charged to it; an
	// inline key sits on its function's first line.
	slow, decl := lineOf(t, fixtureSrc, "// @slow"), lineOf(t, fixtureSrc, "func (t *Table) ensureSlow")
	for k, want := range map[string][]int{
		"bce\tinternal/hot/hot.go\t(*Table).ensureSlow\tFound IsInBounds":                         {slow, slow},
		"escape\tinternal/hot/hot.go\t(*Table).Lookup\tmake([]uint64, n) escapes to heap":         {lineOf(t, fixtureSrc, "// @call")},
		"inline\tinternal/hot/hot.go\t(*Table).ensureSlow\tno inlining verdict from the compiler": {decl},
	} {
		if !reflect.DeepEqual(lines[k], want) {
			t.Errorf("%s: lines %v, want %v", k, lines[k], want)
		}
	}
}

func TestAttributeInlineVerdicts(t *testing.T) {
	diags := []Diag{
		at(t, fixtureSrc, "@ctor", "can inline New with cost 20 as: func(int) *Table { ... }"),
		{File: "internal/hot/hot.go", Line: lineOf(t, fixtureSrc, "func (t *Table) Lookup"), Msg: "can inline (*Table).Lookup with cost 70 as: ..."},
		{File: "internal/hot/hot.go", Line: lineOf(t, fixtureSrc, "func (t *Table) ensureSlow"), Msg: "cannot inline (*Table).ensureSlow: marked go:noinline"},
		// A closure's verdict inside a hot function is not the function's.
		at(t, fixtureSrc, "@index", "cannot inline (*Table).Lookup.func1: unhandled op CLOSURE"),
	}
	got, _ := Attribute(diags, fixtureFuncs(t, fixtureSrc))
	want := map[string]int{"inline\tinternal/hot/hot.go\t(*Table).ensureSlow\tmarked go:noinline": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keys:\n%s\nwant:\n%s", dump(got), dump(want))
	}
}

// TestAttributeInlineCost pins the inline key's shape: a refusal for cost
// is keyed by the function alone and charged the compiler's cost, so the
// cost is the budget; a refusal without a cost keeps its reason in the key.
func TestAttributeInlineCost(t *testing.T) {
	decl := lineOf(t, fixtureSrc, "func (t *Table) Lookup")
	diags := []Diag{
		{File: "internal/hot/hot.go", Line: decl, Msg: "cannot inline (*Table).Lookup: function too complex: cost 166 exceeds budget 80"},
		{File: "internal/hot/hot.go", Line: lineOf(t, fixtureSrc, "func (t *Table) ensureSlow"), Msg: "cannot inline (*Table).ensureSlow: marked go:noinline"},
	}
	got, lines := Attribute(diags, fixtureFuncs(t, fixtureSrc))
	want := map[string]int{
		"inline\tinternal/hot/hot.go\t(*Table).Lookup":                         166,
		"inline\tinternal/hot/hot.go\t(*Table).ensureSlow\tmarked go:noinline": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keys:\n%s\nwant:\n%s", dump(got), dump(want))
	}
	if l := lines["inline\tinternal/hot/hot.go\t(*Table).Lookup"]; !reflect.DeepEqual(l, []int{decl}) {
		t.Errorf("inline cost key lines %v, want [%d]", l, decl)
	}
	if n := Totals(got)[Inline]; n != 2 {
		t.Errorf("Totals counts %d non-inlinable functions, want 2", n)
	}
}

func TestAttributeIgnoresLineShift(t *testing.T) {
	shifted := strings.Replace(fixtureSrc, "// Lookup is", "\n\n\n\n// Lookup is", 1)
	before, _ := Attribute(fixtureDiags(t, fixtureSrc), fixtureFuncs(t, fixtureSrc))
	after, _ := Attribute(fixtureDiags(t, shifted), fixtureFuncs(t, shifted))
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("shifting Lookup changed the keys:\n%s\nvs\n%s", dump(before), dump(after))
	}
}

func TestTotals(t *testing.T) {
	got := Totals(map[string]int{"escape\ta": 2, "escape\tb": 1, "bce\tc": 4, "inline\td\tf": 166, "inline\td\tg\tmarked go:noinline": 1})
	// An inline key is one function, whatever its cost.
	if want := map[string]int{Escape: 3, BCE: 4, Inline: 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("totals = %v, want %v", got, want)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.baseline")
	counts := map[string]int{
		"escape\ta.go\tf\tx escapes to heap": 2,
		"bce\tb.go\tg\tFound IsInBounds":     1,
		"inline\tc.go\th":                    166,
	}
	if err := Write(path, []string{"header one", "header two"}, counts); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, counts) {
		t.Fatalf("round trip: %v != %v", got, counts)
	}
}

func TestReadMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.baseline")
	if err := os.WriteFile(path, []byte("notanumber\tkey\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}

func TestDiffAddedFailsRemovedAdvises(t *testing.T) {
	current := map[string][]int{"bce\ta.go\tnew": {7}, "bce\tb.go\tsame": {3, 4}}
	budget := map[string]int{"bce\tb.go\tsame": 2, "bce\tc.go\tgone": 3}
	var out, errb bytes.Buffer

	if !Diff("t", counted(current), current, budget, "make t-update", &out, &errb) {
		t.Fatal("added diagnostic did not fail the gate")
	}
	if !strings.Contains(errb.String(), "+1  bce: a.go: new") {
		t.Errorf("added diff missing: %q", errb.String())
	}
	if !strings.Contains(out.String(), "-3  bce: c.go: gone") {
		t.Errorf("removed diff missing: %q", out.String())
	}
	if !strings.Contains(errb.String(), "make t-update") {
		t.Errorf("re-baseline hint missing: %q", errb.String())
	}
}

// TestDiffNamesLines pins the pointer a failing gate prints: a key above
// budget lists the file:line of each of its current diagnostics, because
// the line-free key cannot say which one is new. Keys
// within budget and keys with slack list none.
func TestDiffNamesLines(t *testing.T) {
	current := map[string][]int{
		"bce\tinternal/btb/btb.go\t(*BTB).Predict\tFound IsInBounds":   {84, 91},
		"bce\tinternal/core/ppm.go\t(*PPM).Predict\tFound IsInBounds":  {240, 252},
		"escape\tinternal/cbt/cbt.go\t(*CBT).Update\tmoved to heap: x": {17},
	}
	budget := map[string]int{
		"bce\tinternal/btb/btb.go\t(*BTB).Predict\tFound IsInBounds":   1,
		"bce\tinternal/core/ppm.go\t(*PPM).Predict\tFound IsInBounds":  2,
		"escape\tinternal/cbt/cbt.go\t(*CBT).Update\tmoved to heap: x": 3,
	}
	var out, errb bytes.Buffer
	if !Diff("t", counted(current), current, budget, "make t-update", &out, &errb) {
		t.Fatal("key above budget did not fail the gate")
	}
	want := "t: diagnostics above baseline:\n" +
		"  +1  bce: internal/btb/btb.go: (*BTB).Predict: Found IsInBounds\n" +
		"        internal/btb/btb.go:84\n" +
		"        internal/btb/btb.go:91\n" +
		"t: fix the new diagnostics or, if intentional, run `make t-update` and commit the baseline diff\n"
	if errb.String() != want {
		t.Errorf("failure report:\n%s\nwant:\n%s", errb.String(), want)
	}
	if regexp.MustCompile(`\.go:\d`).MatchString(out.String()) {
		t.Errorf("slack report names lines:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "-2  escape: internal/cbt/cbt.go: (*CBT).Update: moved to heap: x") {
		t.Errorf("slack line missing:\n%s", out.String())
	}
}

// TestDiffInlineCostFallIsSlack: an inline cost below its budget passes
// and reports the fall as slack for the re-baseline to tighten; a function
// that became inlinable is slack too.
func TestDiffInlineCostFallIsSlack(t *testing.T) {
	current := map[string]int{"inline\tinternal/btb/btb.go\t(*BTB).Update": 84}
	lines := map[string][]int{"inline\tinternal/btb/btb.go\t(*BTB).Update": {120}}
	budget := map[string]int{
		"inline\tinternal/btb/btb.go\t(*BTB).Update":  90,
		"inline\tinternal/btb/btb.go\t(*BTB).Predict": 95,
	}
	var out, errb bytes.Buffer
	if Diff("t", current, lines, budget, "make t-update", &out, &errb) {
		t.Fatalf("cost fall failed the gate:\n%s", errb.String())
	}
	want := "t: note: baseline has slack (budgeted diagnostics no longer present or inline costs fallen):\n" +
		"  -1  inline: internal/btb/btb.go: (*BTB).Predict: cost 95\n" +
		"  cost 90 → 84  inline: internal/btb/btb.go: (*BTB).Update\n" +
		"t: note: run `make t-update` to tighten the baseline\n"
	if out.String() != want || errb.Len() != 0 {
		t.Errorf("slack report:\n%s\nwant:\n%s\nstderr: %q", out.String(), want, errb.String())
	}
}

// TestDiffInlineCostRiseNamesLine: an inline cost above its budget fails
// as "cost A → B" followed by the function's file:line; a newly refused
// function is a new key and fails with its cost.
func TestDiffInlineCostRiseNamesLine(t *testing.T) {
	current := map[string]int{
		"inline\tinternal/btb/btb.go\t(*BTB).Update":  97,
		"inline\tinternal/btb/btb.go\t(*BTB).Predict": 88,
	}
	lines := map[string][]int{
		"inline\tinternal/btb/btb.go\t(*BTB).Update":  {120},
		"inline\tinternal/btb/btb.go\t(*BTB).Predict": {80},
	}
	budget := map[string]int{"inline\tinternal/btb/btb.go\t(*BTB).Update": 90}
	var out, errb bytes.Buffer
	if !Diff("t", current, lines, budget, "make t-update", &out, &errb) {
		t.Fatal("cost rise did not fail the gate")
	}
	want := "t: diagnostics above baseline:\n" +
		"  +1  inline: internal/btb/btb.go: (*BTB).Predict: cost 88\n" +
		"        internal/btb/btb.go:80\n" +
		"  cost 90 → 97  inline: internal/btb/btb.go: (*BTB).Update\n" +
		"        internal/btb/btb.go:120\n" +
		"t: fix the new diagnostics or, if intentional, run `make t-update` and commit the baseline diff\n"
	if errb.String() != want || out.Len() != 0 {
		t.Errorf("failure report:\n%s\nwant:\n%s\nstdout: %q", errb.String(), want, out.String())
	}
}

func TestDiffCleanPasses(t *testing.T) {
	lines := map[string][]int{"bce\ta.go\tx": {5}}
	var out, errb bytes.Buffer
	if Diff("t", counted(lines), lines, counted(lines), "make t-update", &out, &errb) {
		t.Fatal("identical counts failed the gate")
	}
	if out.Len() != 0 || errb.Len() != 0 {
		t.Fatalf("clean diff printed output: %q %q", out.String(), errb.String())
	}
}

// counted counts each key's lines, as Attribute does for escape and bce
// keys.
func counted(lines map[string][]int) map[string]int {
	counts := make(map[string]int, len(lines))
	for k, ls := range lines {
		counts[k] = len(ls)
	}
	return counts
}

func lineOf(t *testing.T, src, text string) int {
	t.Helper()
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, text) {
			return i + 1
		}
	}
	t.Fatalf("%q not in fixture", text)
	return 0
}

func dump(counts map[string]int) string {
	var b strings.Builder
	for _, k := range sortedKeys(counts) {
		fmt.Fprintf(&b, "  %d %s\n", counts[k], k)
	}
	return b.String()
}
