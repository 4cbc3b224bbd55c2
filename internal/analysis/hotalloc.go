package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enumerates heap allocations on the per-instruction hot path.
// A full-budget run retires hundreds of millions of instructions;
// anything the simulator allocates per access multiplies by that count,
// and the morcd SSE/timeseries encoders run once per epoch per
// subscriber. It has two rules over the shared call graph (static and
// interface edges).
//
// The inventory rule computes the set of functions reachable from the
// hot roots —
//
//	sim.(*System).stepAccess, sim.(*System).serviceMiss,
//	sim.(*frontEnd).next, sim.(*frontEnd).fill,
//	server.writeEvent, server.(*Server).handleTimeseries
//
// (the back end's hit and miss paths, the front end's per-access step
// and the batch fill a helper goroutine runs ahead of the loop) —
// and flags the allocation idioms inside them:
//
//   - append with a freshly allocated destination (append([]T(nil), …),
//     append([]T{}, …)): one heap slice per call;
//   - the fmt.Sprint* / fmt.Fprint* / fmt.Append* families (interface
//     boxing of every operand plus formatting state);
//   - string ⇄ []byte conversions (copy per call);
//   - function literals that capture enclosing variables (closure
//     allocation per evaluation).
//
// Failure paths are exempt: arguments to panic, fmt.Errorf (error
// construction means the access already failed), and the bodies of
// String()/Error() formatting methods. Constructors (make, new, &T{})
// are deliberately not classes — object construction allocates by
// definition and the inventory targets steady-state operations.
//
// The inventory is not a correctness check: its findings in the tree
// are the target list the zero-allocation wire-format work burns down
// (see ROADMAP). Sites that are semantically required today carry
// //morclint:ignore hotalloc justifications that double as that list's
// annotations; the committed allocs/op baselines live in
// BENCH_alloc.json.
//
// The growth rule watches the simulation loop for the class of bug the
// old one-entry-per-miss missLats slice was: a slice field that grows by
// one element per simulated access, reaching gigabytes over a full run
// before it was replaced with an online histogram. From the loop roots
// (functions named run, Run, RunCtx, or step in loopPkgs, and the front
// end's next and fill, which the helper goroutine runs) it flags
// every append whose destination is a field reached through a pointer
// (receiver, pointer parameter) or package-level or closed-over state —
// growth that outlives the call. Appends into value-typed locals (a
// result struct assembled once per run) are fine.
type HotAlloc struct{}

func (*HotAlloc) Name() string { return "hotalloc" }
func (*HotAlloc) Doc() string {
	return "inventory heap allocations (fresh-slice appends, fmt formatting, string conversions, capturing closures) on call paths reachable from the simulation hot loop and the morcd encode paths, and forbid appends onto pointer-reachable fields inside the simulation loop"
}

// hotallocPkgs are the packages whose units can carry inventory
// findings: the deterministic core the hot loop runs through, plus the
// service encode path. (Reachability itself is module-wide; this bounds
// where the inventory lands.)
var hotallocPkgs = []string{
	"internal/sim", "internal/cache", "internal/core", "internal/baseline",
	"internal/compress", "internal/mem", "internal/stats", "internal/trace",
	"internal/server", "internal/telemetry",
}

// loopPkgs hold the loop roots, and are where the growth rule reports.
var loopPkgs = []string{"internal/sim", "internal/obs"}

func (*HotAlloc) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "hotalloc" || u.InPaths(prog, hotallocPkgs...) || u.InPaths(prog, loopPkgs...)
}

// hotRootSuffixes name the hot-path entry points, matched against node
// keys ("pkg.Type.method" / "pkg.func"). Fixture packages use the same
// function names.
var hotRootSuffixes = []string{
	".System.stepAccess", ".System.serviceMiss",
	".frontEnd.next", ".frontEnd.fill",
	"internal/server.writeEvent", ".Server.handleTimeseries",
}

// loopRootSuffixes name the simulation-loop entry points.
var loopRootSuffixes = []string{".run", ".Run", ".RunCtx", ".step", ".frontEnd.next", ".frontEnd.fill"}

func (h *HotAlloc) Run(prog *Program, u *Unit) []Finding {
	return prog.analyzeOnce(h.Name(), analyzeAllocs)[u]
}

func analyzeAllocs(prog *Program) map[*Unit][]Finding {
	cg := prog.CallGraph()
	fixture := func(u *Unit) bool { return u.Fixture() == "hotalloc" }
	inventoried := func(u *Unit) bool { return fixture(u) || u.InPaths(prog, hotallocPkgs...) }
	looping := func(u *Unit) bool { return fixture(u) || u.InPaths(prog, loopPkgs...) }

	// Hot roots in real units, and in fixtures any function named like
	// one (stepAccess, serviceMiss, writeEvent, handleTimeseries).
	names := make([]string, len(hotRootSuffixes))
	for i, suf := range hotRootSuffixes {
		names[i] = suf[strings.LastIndex(suf, "."):]
	}
	hotRoots := append(cg.rootsByKey(func(u *Unit) bool { return u.Fixture() == "" }, hotRootSuffixes...),
		cg.rootsByKey(fixture, names...)...)
	loopRoots := cg.rootsByKey(looping, loopRootSuffixes...)
	hot := cg.Reachable(hotRoots, StaticAndIface)
	loop := cg.Reachable(loopRoots, StaticAndIface)

	out := map[*Unit][]Finding{}
	for _, n := range cg.Nodes() {
		u := n.Unit
		if !u.Lint {
			continue
		}
		var fs []Finding
		if hot[n] && inventoried(u) {
			fs = checkAllocs(cg, hotRoots, n)
		}
		if loop[n] && looping(u) {
			fs = append(fs, checkGrowth(cg, loopRoots, n)...)
		}
		if len(fs) > 0 {
			out[u] = append(out[u], fs...)
		}
	}
	return out
}

// checkGrowth is the growth rule over one function reachable from the
// loop roots.
func checkGrowth(cg *CallGraph, roots []*CGNode, n *CGNode) []Finding {
	info := n.Unit.Info
	var out []Finding
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "append") {
			return true
		}
		dest, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
		if !ok {
			return true // plain locals are per-call and bounded
		}
		if _, shared := sharedRoot(info, n.Decl, dest); shared {
			out = append(out, Finding{Pos: call.Pos(), Message: fmt.Sprintf(
				"append grows %s inside the per-instruction simulation loop (reached from %s); over a full run this is unbounded — use a bounded histogram, ring, or windowed reset",
				types.ExprString(dest), chainTo(cg, roots, n))})
		}
		return true
	})
	return out
}

// isBuiltin reports whether call invokes the named builtin with at
// least one argument.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name || len(call.Args) == 0 {
		return false
	}
	_, ok = usedObject(info, id).(*types.Builtin)
	return ok
}

// checkAllocs is the inventory rule over one function reachable from
// the hot roots.
func checkAllocs(cg *CallGraph, roots []*CGNode, n *CGNode) []Finding {
	info := n.Unit.Info
	if isFormattingMethod(n.Decl) {
		return nil
	}
	chain := chainTo(cg, roots, n)
	var out []Finding
	flag := func(pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		out = append(out, Finding{Pos: pos, Message: fmt.Sprintf(
			"%s on the hot path (%s); preallocate, reuse, or defer to a cold path", msg, chain)})
	}

	// Map reads keyed by a conversion (m[string(b)]) are recognized by
	// the compiler and do not allocate; only stores retain the key.
	// Collect the rvalue index keys so the conversion check skips them.
	// (ast.Inspect visits an AssignStmt before its operands, so LHS
	// index expressions are recorded before they are revisited below.)
	lvalues := map[ast.Node]bool{}
	freeKey := map[ast.Node]bool{}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if as, ok := nd.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				lvalues[ast.Unparen(lhs)] = true
			}
		}
		if ie, ok := nd.(*ast.IndexExpr); ok && !lvalues[ie] {
			if tv, ok := info.Types[ie.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					freeKey[ast.Unparen(ie.Index)] = true
				}
			}
		}
		return true
	})

	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			if isBuiltin(info, nd, "panic") {
				return false // failure path: whatever it formats never runs hot
			}
			if isBuiltin(info, nd, "append") && isFreshSlice(info, nd.Args[0]) {
				flag(nd.Pos(), "append onto a freshly allocated slice (one heap slice per call)")
			}
			fun := ast.Unparen(nd.Fun)
			// String conversions: []byte(s), string(b).
			if tv, ok := info.Types[fun]; ok && tv.IsType() && len(nd.Args) == 1 {
				dst := tv.Type.Underlying()
				src := info.Types[nd.Args[0]].Type
				if src != nil && isStringByteConv(dst, src.Underlying()) && !freeKey[nd] {
					flag(nd.Pos(), "string ⇄ []byte conversion copies per call")
				}
				return true
			}
			if fn := calleeFunc(info, nd); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				switch {
				case fn.Name() == "Errorf":
					// Error construction is the failure path.
				case strings.HasPrefix(fn.Name(), "Sprint"),
					strings.HasPrefix(fn.Name(), "Fprint"), strings.HasPrefix(fn.Name(), "Append"):
					flag(nd.Pos(), "fmt.%s formats (and boxes every operand)", fn.Name())
				}
			}
		case *ast.FuncLit:
			if capturesOuter(info, nd) {
				flag(nd.Pos(), "capturing closure allocates per evaluation")
			}
			return true // its body is a separate (possibly unreachable) context
		}
		return true
	})
	return out
}

// isFormattingMethod reports whether fd is a String() string or
// Error() string method — diagnostic formatting, exempt from the
// inventory.
func isFormattingMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || (fd.Name.Name != "String" && fd.Name.Name != "Error") {
		return false
	}
	ft := fd.Type
	return (ft.Params == nil || len(ft.Params.List) == 0) &&
		ft.Results != nil && len(ft.Results.List) == 1
}

// isFreshSlice reports whether an append destination is freshly
// allocated at the call: []T(nil) conversions, empty or non-empty
// composite literals.
func isFreshSlice(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		// []T(nil) / []T(x) conversion to a slice type.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			_, isSlice := tv.Type.Underlying().(*types.Slice)
			return isSlice
		}
	}
	return false
}

// isStringByteConv reports whether a conversion moves between string
// and []byte/[]rune (both directions copy).
func isStringByteConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isBytes(src)) || (isBytes(dst) && isStr(src))
}

// capturesOuter reports whether a function literal references variables
// declared outside itself (the captures that force a heap closure).
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if found {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := usedObject(info, id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture needed
		}
		if !declaredWithin(v, lit) {
			found = true
		}
		return true
	})
	return found
}
