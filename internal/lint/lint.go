// Package lint is a minimal, dependency-free mirror of the golang.org/x/tools
// go/analysis framework, carrying the custom analyzers that machine-check this
// repository's simulator invariants: bit-reproducible output (determinism),
// documented panic contracts (panicdoc), compile-time predictor interface
// conformance (ifaceassert), lock discipline (lockorder) and checked close
// errors (mustclose).
//
// The container this repository builds in has no module proxy access, so the
// framework is implemented on the standard library alone: packages are loaded
// from `go list -export` compiled export data (the same mechanism `go vet`
// drivers use) and analyzers receive parsed files plus full go/types
// information, exactly as they would under x/tools. The analyzer API is kept
// deliberately close to go/analysis so the suite can migrate to the real
// framework verbatim if the dependency ever becomes available.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static analysis pass, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "determinism").
	Name string
	// Doc is the one-paragraph description printed by `ppmlint -help`.
	Doc string
	// Escape documents the analyzer's escape-hatch directive, e.g.
	// "//lint:sorted <reason>", for the -json diagnostic stream and usage
	// output. Empty when the analyzer has no escape.
	Escape string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an analyzer,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Escape carries the reporting analyzer's escape-hatch directive (or ""),
	// so machine consumers of the -json stream can offer the annotation.
	Escape string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Escape:   p.Analyzer.Escape,
	})
}

// Run applies the analyzers to every loaded package and returns all
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// WalkStack traverses root in depth-first order like ast.Inspect, additionally
// passing each callback the stack of enclosing nodes (outermost first, not
// including n itself).
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// ParseDirective recognizes a `//lint:<name> <reason>` or `//ppm:<name>
// <reason>` annotation comment. The directive must open the comment (mentions
// in prose or doc text do not count); the reason is the text after the name,
// with leading separator punctuation (spaces, dashes, colons) stripped.
func ParseDirective(text string) (prefix, name, reason string, ok bool) {
	body, found := strings.CutPrefix(text, "//")
	if !found {
		// The /*lint:x*/ block form is accepted so a directive can share a
		// line with other comments (fixtures rely on this).
		body, found = strings.CutPrefix(text, "/*")
		if !found {
			return "", "", "", false
		}
		body = strings.TrimSuffix(body, "*/")
	}
	body = strings.TrimLeft(body, " \t")
	for _, p := range []string{"lint", "ppm"} {
		rest, found := strings.CutPrefix(body, p+":")
		if !found {
			continue
		}
		i := 0
		for i < len(rest) && (rest[i] == '-' || rest[i] == '_' ||
			('a' <= rest[i] && rest[i] <= 'z') || ('0' <= rest[i] && rest[i] <= '9')) {
			i++
		}
		if i == 0 {
			return "", "", "", false
		}
		return p, rest[:i], strings.TrimSpace(strings.TrimLeft(rest[i:], " \t—–-:")), true
	}
	return "", "", "", false
}

// EscapeLines collects the source lines carrying a `//lint:<directive>`
// escape-hatch comment in file. A directive suppresses findings anchored on
// its own line or the line immediately below it (so it can be written either
// at the end of the offending line or on the line above).
//
// Every escape must justify itself: an occurrence whose reason sentence is
// missing is itself reported, uniformly across analyzers, though it still
// suppresses the underlying finding so the fix is one edit, not two.
func (p *Pass) EscapeLines(file *ast.File, directive string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			prefix, name, reason, ok := ParseDirective(c.Text)
			if !ok || prefix != "lint" || name != directive {
				continue
			}
			if reason == "" {
				p.Reportf(c.Pos(), "//lint:%s directive needs a reason sentence", name)
			}
			lines[p.Fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

// Escaped reports whether pos is suppressed by a directive line set from
// EscapeLines: the directive sits on the same line or the line above.
func Escaped(fset *token.FileSet, lines map[int]bool, pos token.Pos) bool {
	l := fset.Position(pos).Line
	return lines[l] || lines[l-1]
}

// Unparen strips parentheses and type conversions wrapping e, returning the
// innermost value expression. Conversions are detected with the type info.
func Unparen(info *types.Info, e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			// A conversion is a call whose function is a type.
			if len(x.Args) == 1 {
				if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
					e = x.Args[0]
					continue
				}
			}
			return e
		default:
			return e
		}
	}
}

// ObjectOf resolves an identifier or selector expression (x, x.f, pkg.F) to
// its types.Object, or nil when e has another shape.
func ObjectOf(info *types.Info, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(x)
	case *ast.SelectorExpr:
		return info.ObjectOf(x.Sel)
	}
	return nil
}
