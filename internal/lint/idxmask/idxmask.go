// Package idxmask implements the ppmlint analyzer proving hot-loop slice
// indices in-bounds by construction, so the compiler's bounds-check
// elimination can fire and cmd/codegate's bounds-check budget does not grow
// on the predictor's Predict/Update/Lookup/Observe paths.
//
// For every slice or array index expression inside a hot function (see
// internal/lint/hotset), the index must provably derive from one of:
//
//   - a bitwise-AND mask (`h & (len(t)-1)`, `pc & tagMask`) — the pow2mask
//     analyzer separately proves the mask is 2^k-1;
//   - a modulus by len/cap of a table (`h % uint64(len(t))`);
//   - a non-negative constant;
//   - the index variable of a `range` statement, or a right-shift / len-1
//     derivation of a safe value;
//   - a variable or field compared against `len(...)`/`cap(...)` somewhere
//     in the same function (the ring-buffer wraparound idiom
//     `if head == len(ring) { head = 0 }` and ordinary `i < len(s)` loops);
//   - a variable or field whose every package-wide binding is itself safe
//     and which is never mutated by ++/--/op-assign (a field that only ever
//     holds masked values, like a BTB's pending index);
//   - a call to a same-package single-return helper whose result expression
//     is safe (the `b.index(pc)` convention).
//
// Anything else is reported. Indices the analyzer cannot see through are
// escaped line-by-line with `//lint:idxsafe <reason>`.
package idxmask

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/lint"
	"repro/internal/lint/hotset"
)

// Analyzer proves hot-loop slice indices in-bounds by construction.
var Analyzer = &lint.Analyzer{
	Name: "idxmask",
	Doc: "slice indices in hot-path functions must derive from a mask, a " +
		"modulus by len, or a value compared against len in the same function, " +
		"so bounds checks are eliminated; escape with //lint:idxsafe <reason>",
	Escape: "//lint:idxsafe <reason>",
	Run:    run,
}

// safeDirective is the per-line escape hatch for indices whose bound lives
// outside the analyzer's proof rules.
const safeDirective = "idxsafe"

// maxDepth bounds binding-chain and helper-call following; a field bound to
// a local bound to a helper whose result derives from a config field is a
// realistic chain.
const maxDepth = 8

func run(pass *lint.Pass) error {
	// Enforce the reason sentence on every //lint:idxsafe in the package,
	// even in files whose hot set is empty.
	escapes := map[*ast.File]map[int]bool{}
	for _, file := range pass.Files {
		escapes[file] = pass.EscapeLines(file, safeDirective)
	}

	hot, _ := hotset.Compute(pass)
	if len(hot) == 0 {
		return nil
	}

	st := &state{
		pass:     pass,
		decls:    map[types.Object]*ast.FuncDecl{},
		bindings: map[types.Object][]ast.Expr{},
		poisoned: map[types.Object]bool{},
	}
	st.collect()

	for _, hf := range hot {
		bounded := st.boundedObjects(hf.Decl)
		escaped := escapes[hf.File]
		ast.Inspect(hf.Decl.Body, func(n ast.Node) bool {
			idx, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(idx.X)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array:
			default:
				return true // map/string/generic instantiation: no bounds panic to elide
			}
			if st.safeIndex(idx.Index, bounded, maxDepth) {
				return true
			}
			if lint.Escaped(pass.Fset, escaped, idx.Pos()) {
				return true
			}
			pass.Reportf(idx.Index.Pos(),
				"index %q into %q is not provably in-bounds: derive it from a power-of-two mask, a modulus by len, or a value compared against len (hot path via %s)",
				types.ExprString(idx.Index), types.ExprString(idx.X), hf.Root)
			return true
		})
	}
	return nil
}

type state struct {
	pass *lint.Pass
	// decls maps every package function object to its declaration, for
	// following single-return index helpers.
	decls map[types.Object]*ast.FuncDecl
	// bindings maps a variable or field to the right-hand sides of every
	// plain assignment that feeds it.
	bindings map[types.Object][]ast.Expr
	// poisoned marks objects mutated by ++/-- or an op-assignment: their
	// bindings no longer describe the value they hold.
	poisoned map[types.Object]bool
}

// collect gathers, in one pass over the package, function declarations and
// the package-wide binding/poison sets.
func (s *state) collect() {
	info := s.pass.TypesInfo
	for _, file := range s.pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := info.ObjectOf(fd.Name); obj != nil {
					s.decls[obj] = fd
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
					for _, lhs := range x.Lhs {
						s.poison(lhs)
					}
					return true
				}
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) {
						// x, y := f(): the call result carries no provable bound.
						s.poison(lhs)
						continue
					}
					s.record(lhs, x.Rhs[i])
				}
			case *ast.IncDecStmt:
				s.poison(x.X)
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) {
						s.record(name, x.Values[i])
					}
				}
			case *ast.CompositeLit:
				t := info.TypeOf(x)
				if t == nil {
					return true
				}
				if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
					return true
				}
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						s.record(kv.Key, kv.Value)
					}
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					// &obj escapes: writes through the pointer are invisible.
					s.poison(x.X)
				}
			}
			return true
		})
	}
}

func (s *state) record(target, value ast.Expr) {
	obj := lint.ObjectOf(s.pass.TypesInfo, target)
	if obj == nil {
		return
	}
	s.bindings[obj] = append(s.bindings[obj], lint.Unparen(s.pass.TypesInfo, value))
}

func (s *state) poison(target ast.Expr) {
	if obj := lint.ObjectOf(s.pass.TypesInfo, target); obj != nil {
		s.poisoned[obj] = true
	}
}

// boundedObjects returns the objects that fd's own control flow bounds: the
// index variables of range statements, and any variable or field compared
// against a len()/cap() call anywhere in the body.
func (s *state) boundedObjects(fd *ast.FuncDecl) map[types.Object]bool {
	info := s.pass.TypesInfo
	bounded := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if x.Key == nil {
				return true
			}
			t := info.TypeOf(x.X)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array:
				if obj := lint.ObjectOf(info, x.Key); obj != nil {
					bounded[obj] = true
				}
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				mark := func(e, other ast.Expr) {
					if !containsLenCall(other) {
						return
					}
					if obj := lint.ObjectOf(info, lint.Unparen(info, e)); obj != nil {
						bounded[obj] = true
					}
				}
				mark(x.X, x.Y)
				mark(x.Y, x.X)
			}
		}
		return true
	})
	return bounded
}

// containsLenCall reports whether a len() or cap() call appears anywhere in e.
func containsLenCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// safeIndex reports whether index expression e is provably in-bounds under
// the analyzer's derivation rules.
func (s *state) safeIndex(e ast.Expr, bounded map[types.Object]bool, depth int) bool {
	if depth == 0 {
		return false
	}
	info := s.pass.TypesInfo
	e = lint.Unparen(info, e)

	// Non-negative constants index fixed-size state; the compiler proves the
	// rest at build time (and codegate catches what it cannot).
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		v, exact := constant.Int64Val(tv.Value)
		return exact && v >= 0
	}

	switch x := e.(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.AND:
			// A mask bounds the value; pow2mask proves the mask itself.
			return true
		case token.REM:
			// h % len(t) (with or without a conversion) bounds to [0, len).
			return containsLenCall(x.Y) || isConst(info, x.Y)
		case token.SHR:
			// A right shift never grows a safe value.
			return s.safeIndex(x.X, bounded, depth-1)
		case token.SUB:
			// len(s)-1: the canonical last-slot index.
			return containsLenCall(x.X) && isConst(info, x.Y)
		}
		return false

	case *ast.CallExpr:
		// Unparen already unwrapped conversions, so this is a real call. A
		// same-package single-return helper is safe when its result
		// expression is, evaluated in the helper's own bounded context.
		obj := lint.ObjectOf(info, x.Fun)
		fd, ok := s.decls[obj]
		if !ok {
			return false
		}
		ret := singleReturn(fd)
		if ret == nil {
			return false
		}
		return s.safeIndex(ret, s.boundedObjects(fd), depth-1)

	case *ast.Ident, *ast.SelectorExpr:
		obj := lint.ObjectOf(info, x)
		if obj == nil {
			return false
		}
		if bounded[obj] {
			return true
		}
		return s.safeBindings(obj, bounded, depth-1)
	}
	return false
}

// safeBindings reports whether every package-wide binding of obj is itself a
// safe index derivation and obj is never mutated in place.
func (s *state) safeBindings(obj types.Object, bounded map[types.Object]bool, depth int) bool {
	if depth == 0 || s.poisoned[obj] {
		return false
	}
	bs := s.bindings[obj]
	if len(bs) == 0 {
		return false
	}
	for _, b := range bs {
		if !s.safeIndex(b, bounded, depth-1) {
			return false
		}
	}
	return true
}

// singleReturn returns the result expression of fd when its body is a single
// return with one value, or nil.
func singleReturn(fd *ast.FuncDecl) ast.Expr {
	if len(fd.Body.List) != 1 {
		return nil
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	return ret.Results[0]
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.Int
}
