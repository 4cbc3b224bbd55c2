package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetTaint enforces the deterministic-replay contract: the packages
// that produce sim.Result, telemetry series, and golden JSON must not
// consult wall-clock time or math/rand's global state, and must not let
// Go's randomized map iteration order leak into anything they emit. It
// has two rules.
//
// The source rule looks at every function and package-level
// initializer of the deterministic-core packages (corePkgs), one at a
// time, and flags
//
//   - references to math/rand (and math/rand/v2) package-level functions
//     that read or mutate the shared global generator — seeded *rand.Rand
//     values and internal/rng are fine;
//   - references to time.Now / time.Since / time.Until;
//   - range-over-map loops whose bodies have order-sensitive effects:
//     appending to an outer slice (unless the slice is sorted later in
//     the same block), plain assignments or floating-point accumulation
//     into outer variables, returns derived from the loop variables,
//     channel sends, formatted output, and calls to methods that can
//     mutate outer state. Writes keyed by the loop key (m[k] = v,
//     other[k] = v, delete(m, k)) and integer accumulation commute
//     across iteration orders and are allowed.
//
// The taint rule walks the whole-module call graph from the functions
// that produce the deterministic artifacts (every exported function of
// the core packages, and obs.ShapeOf) and flags every reachable
// function — in any package — that obtains a value from one of the
// same nondeterministic sources and lets it escape. Map-order sources
// also include the callback parameters of sync.Map.Range. "Escape"
// means the tainted value is returned, stored through a pointer
// (receiver field, pointer parameter, package-level or closed-over
// state), or handed to a mutating method of such state. A time.Now()
// whose value dies inside the function is left to the source rule,
// which flags the call itself inside the core packages.
//
// Map-order taint is dropped by the idioms that restore determinism:
// slices that are passed to sort.*/slices.Sort* in the same function
// (the source rule also checks that the sort follows the loop), writes
// keyed by the loop variable (per-key effects commute), and
// integer/boolean accumulation. Wall-clock and global-rand taint is
// never laundered: sorting a slice of timestamps does not make them
// deterministic.
//
// Reachability follows static and interface edges only. Function-value
// edges are excluded on purpose: hooks like System.OnProgress are how
// the service layer (which may stamp wall-clock times onto events)
// observes the core, and their bodies feed server state, not Result.
type DetTaint struct{}

// corePkgs is the deterministic core: every package whose behaviour
// feeds sim.Result, telemetry, or the golden files.
var corePkgs = []string{
	"internal/sim", "internal/core", "internal/cache", "internal/compress",
	"internal/baseline", "internal/mem", "internal/trace", "internal/energy",
	"internal/stats", "internal/telemetry", "internal/exp", "internal/check",
	"internal/rng",
}

func (*DetTaint) Name() string { return "dettaint" }
func (*DetTaint) Doc() string {
	return "nondeterministic sources (wall-clock, global rand, map order): forbidden in the deterministic core, and must not flow into results reachable from it"
}

func (*DetTaint) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "dettaint" || u.Fixture() == ""
}

// isCore reports whether the source rule applies to u: a core package,
// or a dettaint_core* fixture standing in for one.
func isCore(prog *Program, u *Unit) bool {
	if u.Fixture() == "" {
		return u.InPaths(prog, corePkgs...)
	}
	return strings.HasPrefix(u.fixtureDir(), "dettaint_core")
}

func (d *DetTaint) Run(prog *Program, u *Unit) []Finding {
	var out []Finding
	if isCore(prog, u) {
		out = checkSources(u)
	}
	return append(out, prog.analyzeOnce(d.Name(), analyzeTaint)[u]...)
}

// taint is a bitset of nondeterminism kinds.
type taint uint8

const (
	taintTime taint = 1 << iota
	taintRand
	taintMapOrder
)

func (t taint) String() string {
	var parts []string
	if t&taintTime != 0 {
		parts = append(parts, "wall-clock")
	}
	if t&taintRand != 0 {
		parts = append(parts, "global math/rand")
	}
	if t&taintMapOrder != 0 {
		parts = append(parts, "map-iteration-order")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// randConstructors are the math/rand names that only build seeded local
// generators (deterministic and allowed); every other package-level
// function touches the global generator.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// sourceTaint reports the nondeterminism a package-level function
// introduces by itself: wall-clock reads and math/rand's global
// generator. Methods (on *rand.Rand, time.Time, ...) introduce none.
func sourceTaint(fn *types.Func) taint {
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return 0
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return taintTime
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return taintRand
		}
	}
	return 0
}

// sortFuncNames are the sort-package helpers whose first argument is the
// slice being ordered.
var sortFuncNames = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Stable": true,
}

// sortedIdent returns the variable a sort.* or slices.Sort* call
// orders (its first argument), or nil if call is not such a sort.
func sortedIdent(info *types.Info, call *ast.CallExpr) *ast.Ident {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return nil
	}
	if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
		return nil
	}
	if !strings.HasPrefix(fn.Name(), "Sort") && !sortFuncNames[fn.Name()] {
		return nil
	}
	id, _ := ast.Unparen(call.Args[0]).(*ast.Ident)
	return id
}

// usesLoopVar reports whether e mentions one of the loop variables.
func usesLoopVar(info *types.Info, loopVars map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && loopVars[usedObject(info, id)] {
			found = true
		}
		return !found
	})
	return found
}

// commutes reports whether accumulating into e is order-insensitive:
// integer and boolean values commute, floats and strings do not.
func commutes(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// checkSources is the source rule over one core unit.
func checkSources(u *Unit) []Finding {
	var out []Finding
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, _ := usedObject(u.Info, id).(*types.Func)
			switch sourceTaint(fn) {
			case taintRand:
				out = append(out, Finding{Pos: id.Pos(), Message: fmt.Sprintf(
					"%s.%s uses math/rand's global generator; deterministic replay requires internal/rng (or a seeded *rand.Rand)",
					fn.Pkg().Name(), fn.Name())})
			case taintTime:
				out = append(out, Finding{Pos: id.Pos(), Message: fmt.Sprintf(
					"time.%s in the deterministic core: wall-clock values must never influence simulation results",
					fn.Name())})
			}
			return true
		})
		out = append(out, checkMapRanges(u, f)...)
	}
	return out
}

// checkMapRanges finds every range-over-map statement in the file along
// with the statement list that follows it (for the append-then-sort
// idiom) and analyzes its body for order-sensitive effects.
func checkMapRanges(u *Unit, f *ast.File) []Finding {
	var out []Finding
	analyze := func(list []ast.Stmt) {
		for i, st := range list {
			for {
				if ls, ok := st.(*ast.LabeledStmt); ok {
					st = ls.Stmt
					continue
				}
				break
			}
			rs, ok := st.(*ast.RangeStmt)
			if !ok {
				continue
			}
			tv, ok := u.Info.Types[rs.X]
			if !ok {
				continue
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				continue
			}
			out = append(out, checkOneRange(u, rs, list[i+1:])...)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			analyze(n.List)
		case *ast.CaseClause:
			analyze(n.Body)
		case *ast.CommClause:
			analyze(n.Body)
		}
		return true
	})
	return out
}

// checkOneRange analyzes one map-range body. rest is the statement list
// following the range in its enclosing block, consulted to recognize the
// collect-then-sort idiom.
func checkOneRange(u *Unit, rs *ast.RangeStmt, rest []ast.Stmt) []Finding {
	info := u.Info

	// Loop variables (k, v) and the root object of the ranged map.
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := usedObject(info, id); obj != nil {
				loopVars[obj] = true
			}
		}
	}
	var rangedObj types.Object
	if id := baseIdent(rs.X); id != nil {
		rangedObj = usedObject(info, id)
	}

	outer := func(obj types.Object) bool {
		return obj != nil && !declaredWithin(obj, rs)
	}

	type appendTarget struct {
		key string // the slice variable's name
		pos token.Pos
	}
	var appends []appendTarget
	var out []Finding
	flag := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}

	checkWriteTarget := func(lhs ast.Expr, pos token.Pos, compound bool) {
		lhs = ast.Unparen(lhs)
		switch lhs.(type) {
		case *ast.Ident, *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
		default:
			return
		}
		root := baseIdent(lhs)
		if root == nil {
			flag(pos, "writes through a computed expression in map iteration order; iterate sorted keys")
			return
		}
		obj := usedObject(info, root)
		if root.Name == "_" || !outer(obj) || compound && commutes(info, lhs) {
			return // integer/bool accumulation commutes across orders
		}
		switch x := lhs.(type) {
		case *ast.Ident:
			if compound {
				flag(pos, "accumulates floating-point values into %s in map iteration order (float addition is not associative); iterate sorted keys", x.Name)
				return
			}
			flag(pos, "assigns to %s in map iteration order (last writer wins); iterate sorted keys", x.Name)
		case *ast.IndexExpr:
			// Writing the ranged map itself, or keying by the loop
			// variable: distinct keys commute.
			if obj != rangedObj && !usesLoopVar(info, loopVars, x.Index) {
				flag(pos, "writes to %s in map iteration order; iterate sorted keys", root.Name)
			}
		default:
			flag(pos, "writes to state reached through %s in map iteration order; iterate sorted keys", root.Name)
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesLoopVar(info, loopVars, res) {
					flag(n.Pos(), "returns a value derived from map iteration order (a different run may return a different entry); iterate sorted keys")
					break
				}
			}
		case *ast.AssignStmt:
			// x = append(x, ...) on an outer ident: defer judgment to the
			// collect-then-sort check.
			if id := selfAppend(info, n); id != nil {
				if outer(usedObject(info, id)) {
					appends = append(appends, appendTarget{key: id.Name, pos: n.Pos()})
				}
				return true
			}
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkWriteTarget(lhs, n.Pos(), n.Tok != token.ASSIGN)
			}
		case *ast.IncDecStmt:
			checkWriteTarget(n.X, n.Pos(), true)
		case *ast.SendStmt:
			flag(n.Pos(), "sends on a channel in map iteration order; iterate sorted keys")
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
				(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
				flag(n.Pos(), "emits formatted output in map iteration order; iterate sorted keys")
				return true
			}
			// A pointer-receiver or interface method on outer state can
			// mutate it; order of mutation is the iteration order.
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !mutatingMethod(info, sel) {
				return true
			}
			if root := baseIdent(sel.X); root != nil && outer(usedObject(info, root)) {
				flag(n.Pos(), "calls %s.%s (which can mutate state reached through %s) in map iteration order; iterate sorted keys",
					root.Name, sel.Sel.Name, root.Name)
			}
		}
		return true
	})

	// Collect-then-sort: appends to an outer slice are fine when the
	// slice is sorted later in the same enclosing block.
	for _, a := range appends {
		if !sortedAfter(info, rest, a.key) {
			flag(a.pos, "appends to %s in map iteration order and never sorts it; sort %s afterwards or iterate sorted keys", a.key, a.key)
		}
	}
	return out
}

// selfAppend returns x when as is `x = append(x, ...)` on a variable.
func selfAppend(info *types.Info, as *ast.AssignStmt) *ast.Ident {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return nil
	}
	id, _ := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	call, _ := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if id == nil || call == nil || len(call.Args) == 0 {
		return nil
	}
	fid, _ := ast.Unparen(call.Fun).(*ast.Ident)
	arg0, _ := ast.Unparen(call.Args[0]).(*ast.Ident)
	if fid == nil || fid.Name != "append" || arg0 == nil || arg0.Name != id.Name {
		return nil
	}
	return id
}

// mutatingMethod reports whether sel names a method that can mutate its
// receiver: a pointer-receiver method, or any method of an interface.
func mutatingMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return false
	}
	sig, _ := selection.Obj().Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	_, isPtr := sig.Recv().Type().(*types.Pointer)
	return isPtr || isInterface(selection.Recv())
}

// sortedAfter reports whether the statements following a map-range loop
// pass the named slice to a sort call.
func sortedAfter(info *types.Info, rest []ast.Stmt, key string) bool {
	found := false
	for _, st := range rest {
		ast.Inspect(st, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !found {
				if id := sortedIdent(info, call); id != nil && id.Name == key {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// dettaintRoots returns the artifact-producing entry points: every
// exported function and method declared in the deterministic-core
// packages, obs.ShapeOf, and — in dettaint fixture packages — every
// exported function of the fixture.
func dettaintRoots(prog *Program, cg *CallGraph) []*CGNode {
	var roots []*CGNode
	for _, n := range cg.Nodes() {
		u := n.Unit
		if !u.Lint || !n.Fn.Exported() {
			continue
		}
		switch {
		case u.Fixture() == "dettaint":
			roots = append(roots, n)
		case u.Fixture() == "" && u.InPaths(prog, corePkgs...):
			roots = append(roots, n)
		case u.Fixture() == "" && u.InPaths(prog, "internal/obs") && n.Fn.Name() == "ShapeOf":
			roots = append(roots, n)
		}
	}
	return roots
}

// analyzeTaint runs the taint rule once over the whole module and
// buckets findings by unit.
func analyzeTaint(prog *Program) map[*Unit][]Finding {
	cg := prog.CallGraph()
	roots := dettaintRoots(prog, cg)
	reach := cg.Reachable(roots, StaticAndIface)

	out := map[*Unit][]Finding{}
	for _, n := range cg.Nodes() {
		if !reach[n] || !n.Unit.Lint {
			continue
		}
		if fs := checkTaint(cg, roots, n); len(fs) > 0 {
			out[n.Unit] = append(out[n.Unit], fs...)
		}
	}
	return out
}

// chainTo renders a short root→function call chain for messages.
func chainTo(cg *CallGraph, roots []*CGNode, n *CGNode) string {
	path := cg.PathTo(roots, n, StaticAndIface)
	if len(path) <= 1 {
		return shortKey(n.Key())
	}
	if len(path) > 4 {
		path = append(path[:2:2], "…", path[len(path)-1])
	}
	short := make([]string, len(path))
	for i, p := range path {
		short[i] = shortKey(p)
	}
	return strings.Join(short, " → ")
}

// shortKey trims the module prefix off a node key or package path for
// readability ("morc/internal/server" → "server").
func shortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// checkTaint performs the intraprocedural escape analysis of one
// reachable function.
func checkTaint(cg *CallGraph, roots []*CGNode, n *CGNode) []Finding {
	fd, info := n.Decl, n.Unit.Info

	// Vars sanitized of map-order taint: passed to a sort call anywhere
	// in the function (the collect-then-sort idiom; the source rule
	// enforces the sort's placement, the taint rule only needs the
	// laundering fact).
	sorted := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			if id := sortedIdent(info, call); id != nil {
				if obj := usedObject(info, id); obj != nil {
					sorted[obj] = true
				}
			}
		}
		return true
	})

	// Taint sources and loop-variable bookkeeping.
	vt := map[types.Object]taint{} // variable → taint kinds
	loopVars := map[types.Object]bool{}
	seedLoopVar := func(id *ast.Ident) {
		if obj := usedObject(info, id); obj != nil && id.Name != "_" && !sorted[obj] {
			vt[obj] |= taintMapOrder
			loopVars[obj] = true
		}
	}
	ast.Inspect(fd.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.RangeStmt:
			tv, ok := info.Types[nd.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				// Ranging a sorted slice of keys is the fix, not the bug;
				// ranging the map itself taints both loop vars.
				if id := baseIdent(nd.X); id == nil || !sorted[usedObject(info, id)] {
					for _, e := range []ast.Expr{nd.Key, nd.Value} {
						if id, ok := e.(*ast.Ident); ok {
							seedLoopVar(id)
						}
					}
				}
			}
		case *ast.CallExpr:
			// sync.Map.Range(func(k, v any) bool { ... }): the callback
			// parameters arrive in nondeterministic order.
			if sel, ok := ast.Unparen(nd.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Range" {
				if selection := info.Selections[sel]; selection != nil &&
					isNamed(selection.Recv(), "sync", "Map") && len(nd.Args) == 1 {
					if lit, ok := ast.Unparen(nd.Args[0]).(*ast.FuncLit); ok {
						for _, fld := range lit.Type.Params.List {
							for _, name := range fld.Names {
								seedLoopVar(name)
							}
						}
					}
				}
			}
		}
		return true
	})

	// exprTaint: union over contained tainted identifiers and source
	// calls. Sorted vars never carry map-order taint out.
	exprTaint := func(e ast.Expr) taint {
		var t taint
		ast.Inspect(e, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.Ident:
				if obj := usedObject(info, nd); obj != nil {
					k := vt[obj]
					if sorted[obj] {
						k &^= taintMapOrder
					}
					t |= k
				}
			case *ast.CallExpr:
				t |= sourceTaint(calleeFunc(info, nd))
			case *ast.FuncLit:
				return false // its body runs elsewhere
			}
			return true
		})
		return t
	}
	// rhsTaint is the taint assigned to the i'th left-hand side.
	rhsTaint := func(as *ast.AssignStmt, i int) taint {
		if len(as.Rhs) == len(as.Lhs) {
			return exprTaint(as.Rhs[i])
		}
		if len(as.Rhs) == 1 {
			return exprTaint(as.Rhs[0])
		}
		return 0
	}

	// Propagate assignments to locals until stable (bounded: each pass
	// can only add bits).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(nd ast.Node) bool {
			as, ok := nd.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := usedObject(info, id)
				if obj == nil || sorted[obj] {
					continue
				}
				if t := rhsTaint(as, i); vt[obj]|t != vt[obj] {
					vt[obj] |= t
					changed = true
				}
			}
			return true
		})
	}

	chain := chainTo(cg, roots, n)
	var out []Finding
	flag := func(pos token.Pos, t taint, what string) {
		out = append(out, Finding{Pos: pos, Message: fmt.Sprintf(
			"%s value %s; it is reachable into the deterministic artifacts (%s)", t, what, chain)})
	}

	ast.Inspect(fd.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.ReturnStmt:
			for _, res := range nd.Results {
				if t := exprTaint(res); t != 0 {
					flag(nd.Pos(), t, "escapes via return")
					break
				}
			}
		case *ast.AssignStmt:
			if nd.Tok == token.DEFINE {
				return true
			}
			compound := nd.Tok != token.ASSIGN
			for i, lhs := range nd.Lhs {
				lhs = ast.Unparen(lhs)
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				default:
					continue // plain local assignment: handled by propagation
				}
				if _, shared := sharedRoot(info, fd, lhs); !shared {
					continue
				}
				t := rhsTaint(nd, i)
				if t == 0 {
					continue
				}
				// Map-order exemptions: per-key writes commute, and
				// integer accumulation is order-insensitive.
				if t == taintMapOrder {
					if ix, ok := lhs.(*ast.IndexExpr); ok && usesLoopVar(info, loopVars, ix.Index) {
						continue
					}
					if compound && commutes(info, lhs) {
						continue
					}
				}
				flag(nd.Pos(), t, "is stored into shared state")
			}
		case *ast.CallExpr:
			// Tainted argument handed to a mutating method of shared
			// state: a setter is a store.
			sel, ok := ast.Unparen(nd.Fun).(*ast.SelectorExpr)
			if !ok || !mutatingMethod(info, sel) {
				return true
			}
			if _, shared := sharedRoot(info, fd, sel.X); !shared {
				return true
			}
			for _, arg := range nd.Args {
				t := exprTaint(arg)
				if t == taintMapOrder && commutes(info, arg) {
					continue // integer observations commute (counters)
				}
				if t != 0 {
					flag(nd.Pos(), t, fmt.Sprintf("is passed to %s.%s on shared state",
						types.ExprString(sel.X), sel.Sel.Name))
					break
				}
			}
		}
		return true
	})
	return out
}
