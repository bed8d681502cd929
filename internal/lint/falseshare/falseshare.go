// Package falseshare implements the ppmlint analyzer keeping concurrently
// mutated fields off shared cache lines.
//
// Atomic fields exist to be hammered from multiple goroutines — the serve
// handlers and sched workers bump them once per request or per simulation
// cell. Two atomics within the same 64-byte cache line ping-pong that line
// between cores on every write even though the writers never touch the same
// word: classic false sharing, and invisible in profiles except as memory
// stalls.
//
// The analyzer reports:
//
//   - struct types in which two or more sync/atomic-typed fields (looking
//     through embedded structs, so padded wrapper types are measured by
//     where the atomic actually lands) fall on the same 64-byte line of the
//     struct layout;
//   - a single var declaration introducing two or more sync/atomic-typed
//     variables, which the stack frame or the tiny allocator may pack
//     adjacently.
//
// The fix is to pad each hot field to its own line: embed the atomic in a
// struct with a trailing [56]byte blank field.
package falseshare

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer reports atomic fields sharing a cache line.
var Analyzer = &lint.Analyzer{
	Name: "falseshare",
	Doc: "atomic struct fields and var blocks mutated by concurrent workers " +
		"must not share a 64-byte cache line; pad each to a line",
	Run: run,
}

// cacheLine is the coherence granularity on every platform the simulator
// targets (amd64, arm64).
const cacheLine = 64

// sizes is the amd64 layout the gc compiler uses; field offsets, not exact
// totals, are what the line math needs.
var sizes = types.SizesFor("gc", "amd64")

func run(pass *lint.Pass) error {
	if sizes == nil {
		sizes = &types.StdSizes{WordSize: 8, MaxAlign: 8}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				checkStruct(pass, x)
			case *ast.ValueSpec:
				checkVarSpec(pass, x)
			}
			return true
		})
	}
	return nil
}

// atomicSpan is one atomic word inside a struct layout: its byte offset from
// the struct base and the dotted field path that reaches it.
type atomicSpan struct {
	offset int64
	path   string
}

// checkStruct lays out one struct type and reports each cache line holding
// more than one atomic word.
func checkStruct(pass *lint.Pass, st *ast.StructType) {
	t, ok := pass.TypesInfo.TypeOf(st).(*types.Struct)
	if !ok || t.NumFields() == 0 {
		return
	}
	spans := atomicSpans(pass.Pkg, t, 0, "")
	if len(spans) < 2 {
		return
	}
	// Group the atomic words by the cache line their offset falls in.
	byLine := map[int64][]atomicSpan{}
	for _, s := range spans {
		byLine[s.offset/cacheLine] = append(byLine[s.offset/cacheLine], s)
	}
	for _, group := range byLine {
		if len(group) < 2 {
			continue
		}
		first := group[0]
		pos := fieldPos(pass, st, t, strings.SplitN(first.path, ".", 2)[0])
		names := make([]string, len(group))
		for i, s := range group {
			names[i] = s.path
		}
		pass.Reportf(pos, "atomic fields %s share a cache line and false-share under concurrent writers; pad each to %d bytes",
			strings.Join(names, ", "), cacheLine)
	}
}

// atomicSpans collects the offsets of every sync/atomic-typed word in t,
// descending into embedded and named struct fields so padded wrappers are
// measured where their atomic actually lands. Structs named in other
// packages (sync.WaitGroup, sync.Mutex) stay opaque: their layout is not
// the caller's to pad.
func atomicSpans(pkg *types.Package, t *types.Struct, base int64, prefix string) []atomicSpan {
	fields := make([]*types.Var, t.NumFields())
	for i := range fields {
		fields[i] = t.Field(i)
	}
	offsets := sizes.Offsetsof(fields)
	var spans []atomicSpan
	for i, f := range fields {
		path := f.Name()
		if prefix != "" {
			path = prefix + "." + path
		}
		ft := f.Type()
		if isAtomicType(ft) {
			spans = append(spans, atomicSpan{offset: base + offsets[i], path: path})
			continue
		}
		if named, ok := ft.(*types.Named); ok && named.Obj().Pkg() != pkg {
			continue
		}
		if inner, ok := ft.Underlying().(*types.Struct); ok {
			spans = append(spans, atomicSpans(pkg, inner, base+offsets[i], path)...)
		}
	}
	return spans
}

// isAtomicType reports whether t is a named type from sync/atomic.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// fieldPos resolves the declaration position of the named top-level field,
// falling back to the struct itself.
func fieldPos(pass *lint.Pass, st *ast.StructType, t *types.Struct, name string) token.Pos {
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			if id.Name == name {
				return id.Pos()
			}
		}
		// Embedded field: the type expression carries the name.
		if len(f.Names) == 0 {
			if id := embeddedName(f.Type); id != nil && id.Name == name {
				return id.Pos()
			}
		}
	}
	return st.Pos()
}

// embeddedName returns the identifier naming an embedded field.
func embeddedName(e ast.Expr) *ast.Ident {
	switch x := e.(type) {
	case *ast.Ident:
		return x
	case *ast.StarExpr:
		return embeddedName(x.X)
	case *ast.SelectorExpr:
		return x.Sel
	}
	return nil
}

// checkVarSpec reports a single var spec declaring two or more atomic
// variables: the frame or the tiny allocator may pack them into one line.
func checkVarSpec(pass *lint.Pass, spec *ast.ValueSpec) {
	var atomics []string
	for _, name := range spec.Names {
		obj := pass.TypesInfo.ObjectOf(name)
		if obj == nil {
			continue
		}
		if isAtomicType(obj.Type()) {
			atomics = append(atomics, name.Name)
		}
	}
	if len(atomics) < 2 {
		return
	}
	pass.Reportf(spec.Pos(), "atomic variables %s are declared together and may share a cache line under concurrent writers; hoist into a padded struct",
		strings.Join(atomics, ", "))
}
