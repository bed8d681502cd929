// Package lockorder builds a static mutex-acquisition graph per package and
// reports two deadlock shapes before they can ship:
//
//   - ordering cycles: if one call path acquires A then B and another
//     acquires B then A, two goroutines can each hold one lock and wait
//     forever on the other. Locks are named by owning type and field
//     ("Server.mu", "Cache.mu"); an edge A→B means B was acquired while A
//     was held, directly or through a same-package callee.
//   - locks held across blocking operations: a channel send/receive/select,
//     a net/os I/O call, a sync.WaitGroup.Wait, a sim.Engine.Process chain,
//     or one of the repository's known cross-package blockers
//     (tracecache.Get's singleflight wait, sched's Map join,
//     serve.Server.Shutdown's drain). Whatever the blocked operation waits
//     on, every contender for the held lock now waits on it too — the
//     serve/sched/tracecache layering forbids it.
//
// The analysis is a linearized walk of each function body in source order:
// precise for the repository's lock idioms (acquire → work → release, or
// acquire + defer release), deliberately simple-minded about exotic control
// flow. Function literals are independent scopes (a goroutine body does not
// inherit its spawner's held set). Same-package calls propagate both what a
// callee acquires and whether it blocks; cross-package calls are trusted to
// be analyzed on their own side, except the known blockers listed above.
//
// A blocking operation that is provably safe under its lock (say, a
// non-blocking close, or a send on a buffered channel sized for the worst
// case) opts out with `//lint:lockheld <reason>` on the operation's line or
// the line above. Cycles have no escape: break the cycle.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// LockheldDirective justifies one blocking operation under a held lock.
const LockheldDirective = "lockheld"

// Analyzer reports lock-ordering cycles and locks held across blocking
// operations.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc: "build the package's mutex-acquisition graph; report ordering " +
		"cycles (potential deadlocks) and locks held across blocking " +
		"operations — channel ops, net/os I/O, WaitGroup.Wait, " +
		"sim.Engine.Process, tracecache.Get, sched Map " +
		"(//lint:lockheld escapes a justified blocking op)",
	Escape: "//lint:lockheld <reason>",
	Run:    run,
}

// event is one lock-relevant step of a linearized function body.
type event struct {
	kind eventKind
	key  string       // acquire/release: lock name
	desc string       // block: human description
	obj  types.Object // call: same-package callee
	pos  token.Pos
}

type eventKind int

const (
	evAcquire eventKind = iota
	evRelease
	evDeferRelease
	evBlock
	evCall
)

// scope is one analyzed body: a function declaration or a function literal.
type scope struct {
	label  string
	events []event
}

// summary is what a function exposes to its same-package callers.
type summary struct {
	acquires map[string]bool
	blocking string // description of the first blocking op, or ""
}

func run(pass *lint.Pass) error {
	// Per-file //lint:lockheld escape lines, keyed by filename.
	escapes := map[string]map[int]bool{}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		escapes[name] = pass.EscapeLines(file, LockheldDirective)
	}
	escaped := func(pos token.Pos) bool {
		p := pass.Fset.Position(pos)
		return lint.Escaped(pass.Fset, escapes[p.Filename], pos)
	}

	// Collect scopes: every FuncDecl body and every FuncLit body, each
	// linearized independently.
	var scopes []*scope
	declScopes := map[types.Object]*scope{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sc := collect(pass, fd.Body, fd.Name.Name)
			scopes = append(scopes, sc...)
			if obj := pass.TypesInfo.ObjectOf(fd.Name); obj != nil && len(sc) > 0 {
				declScopes[obj] = sc[0] // sc[0] is the decl body itself
			}
		}
	}

	summaries := summarize(declScopes)

	// Simulate each scope, building the acquisition graph and reporting
	// blocking-under-lock as it appears.
	edges := map[string]map[string]token.Pos{}
	addEdge := func(from, to string, pos token.Pos) {
		if edges[from] == nil {
			edges[from] = map[string]token.Pos{}
		}
		if old, ok := edges[from][to]; !ok || pos < old {
			edges[from][to] = pos
		}
	}

	for _, sc := range scopes {
		var held []string
		holds := func(k string) bool {
			for _, h := range held {
				if h == k {
					return true
				}
			}
			return false
		}
		for _, ev := range sc.events {
			switch ev.kind {
			case evAcquire:
				if holds(ev.key) {
					pass.Reportf(ev.pos, "%s acquired while already held on this path (self-deadlock)", ev.key)
					continue
				}
				for _, h := range held {
					addEdge(h, ev.key, ev.pos)
				}
				held = append(held, ev.key)
			case evRelease:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == ev.key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case evDeferRelease:
				// Held until the function returns: nothing to do — the key
				// simply stays in the held set for the rest of the walk.
			case evBlock:
				if len(held) > 0 && !escaped(ev.pos) {
					pass.Reportf(ev.pos, "%s held across blocking %s; release it first or annotate //lint:lockheld <reason>", held[len(held)-1], ev.desc)
				}
			case evCall:
				sum, ok := summaries[ev.obj]
				if !ok {
					continue
				}
				if len(held) > 0 {
					if sum.blocking != "" && !escaped(ev.pos) {
						pass.Reportf(ev.pos, "%s held across call to %s, which blocks on %s; release it first or annotate //lint:lockheld <reason>", held[len(held)-1], ev.obj.Name(), sum.blocking)
					}
					for _, k := range sortedKeys(sum.acquires) {
						if holds(k) {
							pass.Reportf(ev.pos, "call to %s acquires %s, already held on this path (self-deadlock)", ev.obj.Name(), k)
							continue
						}
						for _, h := range held {
							addEdge(h, k, ev.pos)
						}
					}
				}
			}
		}
	}

	reportCycles(pass, edges)
	return nil
}

// collect linearizes body into events in source order. Function literals
// inside body are excluded from the parent's stream and returned as their
// own scopes (the first returned scope is body's own).
func collect(pass *lint.Pass, body *ast.BlockStmt, label string) []*scope {
	info := pass.TypesInfo
	own := &scope{label: label}
	out := []*scope{own}

	lint.WalkStack(body, func(n ast.Node, stack []ast.Node) {
		// Skip anything inside a nested function literal; those are
		// collected as separate scopes below.
		for _, a := range stack {
			if _, ok := a.(*ast.FuncLit); ok {
				return
			}
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			out = append(out, collect(pass, x.Body, label+".func")...)
		case *ast.CallExpr:
			// A call spawned on its own goroutine affects that goroutine's
			// ordering, not this one's.
			if len(stack) > 0 {
				if _, ok := stack[len(stack)-1].(*ast.GoStmt); ok {
					return
				}
			}
			deferred := false
			if len(stack) > 0 {
				if ds, ok := stack[len(stack)-1].(*ast.DeferStmt); ok && ds.Call == x {
					deferred = true
				}
			}
			own.events = append(own.events, callEvents(info, x, deferred)...)
		case *ast.SendStmt:
			own.events = append(own.events, event{kind: evBlock, desc: "channel send", pos: x.Pos()})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				own.events = append(own.events, event{kind: evBlock, desc: "channel receive", pos: x.Pos()})
			}
		case *ast.SelectStmt:
			blocking := true
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					blocking = false // a default case makes the select a poll
				}
			}
			if blocking {
				own.events = append(own.events, event{kind: evBlock, desc: "select", pos: x.Pos()})
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					own.events = append(own.events, event{kind: evBlock, desc: "range over channel", pos: x.Pos()})
				}
			}
		}
	})
	return out
}

// callEvents classifies one call expression into zero or more events.
func callEvents(info *types.Info, call *ast.CallExpr, deferred bool) []event {
	fn, ok := lint.ObjectOf(info, call.Fun).(*types.Func)
	if !ok {
		return nil
	}
	if key, acquire, ok := mutexOp(info, call, fn); ok {
		switch {
		case acquire && deferred:
			return nil // defer mu.Lock() is nonsense; ignore rather than model
		case acquire:
			return []event{{kind: evAcquire, key: key, pos: call.Pos()}}
		case deferred:
			return []event{{kind: evDeferRelease, key: key, pos: call.Pos()}}
		default:
			return []event{{kind: evRelease, key: key, pos: call.Pos()}}
		}
	}
	if deferred {
		return nil // other deferred work runs after the body; out of scope
	}
	if desc := blockingCall(fn); desc != "" {
		return []event{{kind: evBlock, desc: desc, pos: call.Pos()}}
	}
	if fn.Pkg() != nil {
		// Possibly a same-package static call: the simulation propagates the
		// callee's summary if one exists, and ignores the event otherwise.
		return []event{{kind: evCall, obj: fn, pos: call.Pos()}}
	}
	return nil
}

// mutexOp recognizes sync.Mutex / sync.RWMutex method calls, returning the
// lock's stable name and whether the call acquires (vs releases).
func mutexOp(info *types.Info, call *ast.CallExpr, fn *types.Func) (key string, acquire, ok bool) {
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return "", false, false
	}
	sel, sok := call.Fun.(*ast.SelectorExpr)
	if !sok {
		return "", false, false
	}
	return lockName(info, sel.X), acquire, true
}

// lockName derives a stable per-package name for the lock a method call
// targets: "OwnerType.field" for a struct-owned mutex, the identifier for a
// local or package-level one, "OwnerType.Mutex" for an embedded one.
func lockName(info *types.Info, recv ast.Expr) string {
	recv = lint.Unparen(info, recv)
	t := info.TypeOf(recv)
	if t != nil && !isMutexType(t) {
		// Embedded: the owning struct is the lock.
		if n := namedName(t); n != "" {
			return n + ".Mutex"
		}
	}
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if bt := info.TypeOf(e.X); bt != nil {
			if n := namedName(bt); n != "" {
				return n + "." + e.Sel.Name
			}
		}
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return "mutex"
}

// isMutexType reports whether t (or its pointee) is sync.Mutex/RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// namedName returns the bare name of t's named type (through pointers).
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// blockingOSNames are the os package entry points treated as blocking I/O.
var blockingOSNames = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
	"WriteFile": true, "Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "ReadDir": true, "Pipe": true,
	"Read": true, "Write": true, "Close": true, "Sync": true, "Seek": true,
}

// knownBlockers are repository cross-package calls that wait: the
// singleflight trace materialization, the scheduler's joins, and the
// serving drain.
var knownBlockers = map[string]map[string]string{
	"repro/internal/tracecache": {"Get": "trace generation (singleflight wait)"},
	"repro/internal/sched":      {"Map": "worker-pool join"},
	"repro/internal/serve":      {"Shutdown": "shutdown drain"},
	"repro/internal/sim":        {"Process": "simulation", "ProcessAll": "simulation", "ProcessReader": "simulation"},
}

// blockingCall classifies a callee as blocking, returning a description.
func blockingCall(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "net", "net/http":
		return fmt.Sprintf("%s.%s (network I/O)", pkg.Name(), fn.Name())
	case "os":
		if blockingOSNames[fn.Name()] {
			return fmt.Sprintf("os.%s (file I/O)", fn.Name())
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if fn.Name() == "Wait" {
			return "sync.WaitGroup.Wait"
		}
	}
	if names, ok := knownBlockers[pkg.Path()]; ok {
		if desc, ok := names[fn.Name()]; ok {
			return fmt.Sprintf("%s.%s (%s)", pkg.Name(), fn.Name(), desc)
		}
	}
	return ""
}

// summarize computes, for every declared function, the set of locks it
// acquires and whether it blocks — transitively through same-package calls.
func summarize(declScopes map[types.Object]*scope) map[types.Object]*summary {
	sums := map[types.Object]*summary{}
	for obj, sc := range declScopes {
		s := &summary{acquires: map[string]bool{}}
		for _, ev := range sc.events {
			switch ev.kind {
			case evAcquire:
				s.acquires[ev.key] = true
			case evBlock:
				if s.blocking == "" {
					s.blocking = ev.desc
				}
			}
		}
		sums[obj] = s
	}
	// Fixpoint over the same-package call graph.
	for changed := true; changed; {
		changed = false
		for obj, sc := range declScopes {
			s := sums[obj]
			for _, ev := range sc.events {
				if ev.kind != evCall {
					continue
				}
				callee, ok := sums[ev.obj]
				if !ok {
					continue
				}
				for k := range callee.acquires {
					if !s.acquires[k] {
						s.acquires[k] = true
						changed = true
					}
				}
				if s.blocking == "" && callee.blocking != "" {
					s.blocking = callee.blocking
					changed = true
				}
			}
		}
	}
	return sums
}

// reportCycles finds ordering cycles in the acquisition graph and reports
// each once, anchored at the latest-in-source edge that closes it.
func reportCycles(pass *lint.Pass, edges map[string]map[string]token.Pos) {
	nodes := sortedKeys2(edges)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	seen := map[string]bool{} // canonical cycle signatures already reported

	var visit func(n string)
	visit = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		for _, m := range sortedKeys(boolify(edges[n])) {
			switch color[m] {
			case white:
				visit(m)
			case gray:
				// Back edge n→m closes a cycle: stack from m to n.
				start := 0
				for i, s := range stack {
					if s == m {
						start = i
						break
					}
				}
				cycle := append(append([]string{}, stack[start:]...), m)
				sig := canonical(cycle)
				if seen[sig] {
					continue
				}
				seen[sig] = true
				// Anchor at the latest-positioned edge of the cycle.
				var pos token.Pos
				for i := 0; i+1 < len(cycle); i++ {
					if p := edges[cycle[i]][cycle[i+1]]; p > pos {
						pos = p
					}
				}
				pass.Reportf(pos, "lock ordering cycle: %s; pick one acquisition order and hold to it everywhere", strings.Join(cycle, " -> "))
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
}

// canonical rotates a cycle (first == last) to start at its smallest node,
// giving a signature independent of where DFS entered it.
func canonical(cycle []string) string {
	body := cycle[:len(cycle)-1]
	min := 0
	for i, s := range body {
		if s < body[min] {
			min = i
		}
	}
	rot := append(append([]string{}, body[min:]...), body[:min]...)
	return strings.Join(rot, "->")
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeys2(m map[string]map[string]token.Pos) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func boolify(m map[string]token.Pos) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
