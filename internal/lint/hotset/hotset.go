// Package hotset computes the set of hot-path functions in a package: the
// functions reachable from the simulator's per-lookup entry points, whose
// compiled code the codegen gate (internal/lint/gate) budgets.
//
// Roots are discovered two ways:
//
//  1. Interface roots: the Predict, Update, Lookup and Observe methods of
//     every concrete type implementing predictor.IndirectPredictor — the
//     per-branch protocol the engine drives once per committed record.
//  2. Annotation roots: any function whose doc comment carries a
//     `//ppm:hotpath` directive. Support packages (hashing, history,
//     counter, ...) mark their per-lookup helpers this way so their bodies
//     are checked in the package that owns them, even though the call graph
//     never crosses package boundaries here.
//
// A `//ppm:coldpath` directive in a function's doc comment removes it from
// the hot set entirely (used by measurement-only predictors like the oracle,
// whose unbounded bookkeeping is not hardware). Reachability is computed over
// same-package static calls: calls into other packages are trusted to be
// annotated — and therefore checked — on their own side of the boundary.
package hotset

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// HotpathDirective marks a function as a hot-path root when `//ppm:hotpath`
// opens a line of the function's doc comment.
const HotpathDirective = "hotpath"

// ColdpathDirective (`//ppm:coldpath`) excludes a function from the hot set.
const ColdpathDirective = "coldpath"

// predictorPath is the package defining the predictor contract.
const predictorPath = "repro/internal/predictor"

// rootMethodNames are the IndirectPredictor-implementation methods treated
// as hot-path roots: the per-lookup protocol plus the table probe verb.
var rootMethodNames = map[string]bool{
	"Predict": true,
	"Update":  true,
	"Lookup":  true,
	"Observe": true,
}

// Compute returns the declarations of the package's hot functions in source
// order.
func Compute(pass *lint.Pass) []*ast.FuncDecl {
	decls := map[types.Object]*ast.FuncDecl{}
	cold := map[types.Object]bool{}

	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(fd.Name)
			if obj == nil {
				continue
			}
			decls[obj] = fd
			if hasDirective(fd, ColdpathDirective) {
				cold[obj] = true
			}
		}
	}

	iface := indirectPredictorInterface(pass.Pkg)

	// Seed the worklist with roots.
	reached := map[types.Object]*ast.FuncDecl{}
	var work []*ast.FuncDecl
	add := func(obj types.Object) {
		fd, ok := decls[obj]
		if !ok || cold[obj] || reached[obj] != nil {
			return
		}
		reached[obj] = fd
		work = append(work, fd)
	}

	for obj, fd := range decls {
		if hasDirective(fd, HotpathDirective) ||
			iface != nil && fd.Recv != nil && rootMethodNames[fd.Name.Name] && receiverImplements(pass, fd, iface) {
			add(obj)
		}
	}

	// BFS over same-package static calls.
	for len(work) > 0 {
		fd := work[0]
		work = work[1:]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := lint.ObjectOf(pass.TypesInfo, call.Fun)
			fn, ok := callee.(*types.Func)
			if !ok || fn.Pkg() != pass.Pkg {
				return true
			}
			add(fn)
			return true
		})
	}

	hot := make([]*ast.FuncDecl, 0, len(reached))
	for _, fd := range reached {
		hot = append(hot, fd)
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].Pos() < hot[j].Pos() })
	return hot
}

// hasDirective reports whether the function's doc comment carries the
// given //ppm:<directive> annotation.
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if prefix, name, _, ok := lint.ParseDirective(c.Text); ok && prefix == "ppm" && name == directive {
			return true
		}
	}
	return false
}

// Label renders a function's display name exactly as the compiler prints
// it in -m diagnostics, e.g. "(*PPM).Predict", "Hysteresis.Value" or "SFSXS".
func Label(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	var b strings.Builder
	if star, ok := t.(*ast.StarExpr); ok {
		b.WriteString("(*")
		if id, ok := star.X.(*ast.Ident); ok {
			b.WriteString(id.Name)
		}
		b.WriteString(")")
	} else if id, ok := t.(*ast.Ident); ok {
		b.WriteString(id.Name)
	}
	b.WriteString(".")
	b.WriteString(fd.Name.Name)
	return b.String()
}

// indirectPredictorInterface resolves predictor.IndirectPredictor from the
// analyzed package or its direct imports, or nil when out of scope.
func indirectPredictorInterface(pkg *types.Package) *types.Interface {
	var ppkg *types.Package
	if pkg.Path() == predictorPath {
		ppkg = pkg
	} else {
		for _, imp := range pkg.Imports() {
			if imp.Path() == predictorPath {
				ppkg = imp
				break
			}
		}
	}
	if ppkg == nil {
		return nil
	}
	tn, ok := ppkg.Scope().Lookup("IndirectPredictor").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// receiverImplements reports whether the method's receiver base type (or a
// pointer to it) implements iface.
func receiverImplements(pass *lint.Pass, fd *ast.FuncDecl, iface *types.Interface) bool {
	if len(fd.Recv.List) == 0 {
		return false
	}
	rt := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if rt == nil {
		return false
	}
	if types.Implements(rt, iface) {
		return true
	}
	if _, isPtr := rt.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(rt), iface)
	}
	return false
}
