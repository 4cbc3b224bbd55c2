package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file is the interprocedural substrate: a whole-module call graph
// built once per Program and shared by every pass that needs to reason
// across function boundaries (dettaint, lockorder, hotalloc). The graph
// is intentionally conservative — it over-approximates "may call":
//
//   - static edges for direct calls to declared functions and methods;
//   - interface edges from an interface-method call site to that method
//     on every declared type in the module that implements the
//     interface (value or pointer receiver);
//   - function-value edges from a call through a function-typed
//     expression to every module function whose address is taken
//     somewhere in the module and whose signature is identical.
//
// Calls inside function literals are attributed to the enclosing
// declared function: the literal may run later (goroutine, callback),
// but everything it can reach is still reachable *because of* its
// encloser, which is the property reachability passes rely on.

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a declared function or a method
	// call with a concrete receiver.
	EdgeStatic EdgeKind = iota
	// EdgeIface is an interface-method call, conservatively resolved to
	// a declared implementation.
	EdgeIface
	// EdgeFuncValue is a call through a function-typed value,
	// conservatively resolved to an address-taken module function with
	// an identical signature.
	EdgeFuncValue
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeIface:
		return "iface"
	case EdgeFuncValue:
		return "funcvalue"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// CGEdge is one may-call edge, positioned at its call site.
type CGEdge struct {
	Caller *CGNode
	Callee *CGNode
	Pos    token.Pos
	Kind   EdgeKind
}

// CGNode is one declared function or method in the module.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Unit *Unit
	Out  []*CGEdge
	In   []*CGEdge
}

// Key renders the node's stable identity: "pkgpath.Func" for package
// functions, "pkgpath.Recv.Method" for methods (pointer stars stripped).
func (n *CGNode) Key() string { return funcKey(n.Fn) }

func funcKey(fn *types.Func) string {
	pkg := "?"
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if named := namedType(sig.Recv().Type()); named != nil {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
		return pkg + ".?." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// CallGraph is the module's may-call relation over declared functions.
type CallGraph struct {
	prog  *Program
	nodes map[*types.Func]*CGNode
	byKey map[string][]*CGNode
}

// CallGraph builds (once) and returns the whole-module call graph.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg == nil {
		prog.cg = buildCallGraph(prog)
	}
	return prog.cg
}

// analyzeOnce runs a pass's whole-program analysis the first time the
// pass asks for it and returns the memoized per-unit findings after
// that: an interprocedural pass analyzes the module once and hands each
// unit its share.
func (prog *Program) analyzeOnce(pass string, analyze func(*Program) map[*Unit][]Finding) map[*Unit][]Finding {
	if prog.findings == nil {
		prog.findings = map[string]map[*Unit][]Finding{}
	}
	byUnit, ok := prog.findings[pass]
	if !ok {
		byUnit = analyze(prog)
		prog.findings[pass] = byUnit
	}
	return byUnit
}

// NodeFor returns the node for a declared function, if any.
func (cg *CallGraph) NodeFor(fn *types.Func) *CGNode { return cg.nodes[fn] }

// Lookup returns the nodes with the given Key (several units may declare
// same-named functions in fixtures).
func (cg *CallGraph) Lookup(key string) []*CGNode { return cg.byKey[key] }

// Nodes returns every node sorted by Key then position (deterministic).
func (cg *CallGraph) Nodes() []*CGNode {
	out := make([]*CGNode, 0, len(cg.nodes))
	for _, n := range cg.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if ki, kj := out[i].Key(), out[j].Key(); ki != kj {
			return ki < kj
		}
		return out[i].Fn.Pos() < out[j].Fn.Pos()
	})
	return out
}

// Reachable computes the forward-reachable set from roots, following
// edges whose kind passes the filter (nil follows every kind).
func (cg *CallGraph) Reachable(roots []*CGNode, follow func(EdgeKind) bool) map[*CGNode]bool {
	seen := map[*CGNode]bool{}
	stack := append([]*CGNode(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		for _, e := range n.Out {
			if follow == nil || follow(e.Kind) {
				if !seen[e.Callee] {
					stack = append(stack, e.Callee)
				}
			}
		}
	}
	return seen
}

// PathTo returns one shortest call path (as node keys) from any root to
// target, for diagnostics. Deterministic: BFS expands edges in the
// nodes' sorted order. Returns nil if target is unreachable.
func (cg *CallGraph) PathTo(roots []*CGNode, target *CGNode, follow func(EdgeKind) bool) []string {
	type hop struct {
		n    *CGNode
		prev *hop
	}
	seen := map[*CGNode]bool{}
	var queue []*hop
	sortedRoots := append([]*CGNode(nil), roots...)
	sort.Slice(sortedRoots, func(i, j int) bool { return sortedRoots[i].Key() < sortedRoots[j].Key() })
	for _, r := range sortedRoots {
		if r != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, &hop{n: r})
		}
	}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.n == target {
			var rev []string
			for x := h; x != nil; x = x.prev {
				rev = append(rev, x.n.Key())
			}
			out := make([]string, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				out = append(out, rev[i])
			}
			return out
		}
		for _, e := range h.n.Out {
			if follow != nil && !follow(e.Kind) {
				continue
			}
			if !seen[e.Callee] {
				seen[e.Callee] = true
				queue = append(queue, &hop{n: e.Callee, prev: h})
			}
		}
	}
	return nil
}

// StaticAndIface follows static and interface edges — the resolution
// passes use for semantic reachability. Function-value edges are
// deliberately excluded there: callbacks like sim.System.OnProgress are
// service-layer hooks whose bodies run outside the callee's contract,
// and following them would weld the service layer onto the
// deterministic core. They remain in the graph for -callgraph dumps and
// caller queries.
func StaticAndIface(k EdgeKind) bool { return k == EdgeStatic || k == EdgeIface }

// Dump writes the graph deterministically: one "caller -> callee [kind]
// @ file:line" line per edge, sorted, preceded by a node count header.
func (cg *CallGraph) Dump(w io.Writer) {
	nodes := cg.Nodes()
	edges := 0
	for _, n := range nodes {
		edges += len(n.Out)
	}
	fmt.Fprintf(w, "callgraph: %d functions, %d edges\n", len(nodes), edges)
	for _, n := range nodes {
		out := append([]*CGEdge(nil), n.Out...)
		sort.Slice(out, func(i, j int) bool {
			if ki, kj := out[i].Callee.Key(), out[j].Callee.Key(); ki != kj {
				return ki < kj
			}
			if out[i].Pos != out[j].Pos {
				return out[i].Pos < out[j].Pos
			}
			return out[i].Kind < out[j].Kind
		})
		for _, e := range out {
			pos := cg.prog.Fset.Position(e.Pos)
			fmt.Fprintf(w, "%s -> %s [%s] @ %s:%d\n", n.Key(), e.Callee.Key(), e.Kind, pos.Filename, pos.Line)
		}
	}
}

// buildCallGraph constructs the graph over every loaded unit (lint and
// dependency units alike: a core package calling into a dependency must
// keep resolving through it).
func buildCallGraph(prog *Program) *CallGraph {
	cg := &CallGraph{
		prog:  prog,
		nodes: map[*types.Func]*CGNode{},
		byKey: map[string][]*CGNode{},
	}

	// Nodes: every function declaration with a body.
	for _, u := range prog.Units {
		u := u
		eachFuncDecl(u, func(fd *ast.FuncDecl) {
			fn := funcFor(u.Info, fd)
			if fn == nil {
				return
			}
			n := &CGNode{Fn: fn, Decl: fd, Unit: u}
			cg.nodes[fn] = n
			cg.byKey[n.Key()] = append(cg.byKey[n.Key()], n)
		})
	}

	// Named module types (for interface resolution) and address-taken
	// functions (for function-value resolution).
	var namedTypes []*types.Named
	for _, u := range prog.Units {
		if u.Pkg == nil {
			continue
		}
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					namedTypes = append(namedTypes, named)
				}
			}
		}
	}
	addressTaken := map[*types.Func]bool{}
	for _, u := range prog.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				// Identifiers used as call operands (not the callee itself)
				// are value uses: arguments, including method values.
				for _, arg := range call.Args {
					markFuncValues(u.Info, arg, addressTaken)
				}
				return true
			})
			// Assignments, composite literals, returns of function values.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, rhs := range n.Rhs {
						markFuncValues(u.Info, rhs, addressTaken)
					}
				case *ast.ValueSpec:
					for _, v := range n.Values {
						markFuncValues(u.Info, v, addressTaken)
					}
				case *ast.ReturnStmt:
					for _, r := range n.Results {
						markFuncValues(u.Info, r, addressTaken)
					}
				case *ast.KeyValueExpr:
					markFuncValues(u.Info, n.Value, addressTaken)
				}
				return true
			})
		}
	}

	// Edges.
	for _, u := range prog.Units {
		u := u
		eachFuncDecl(u, func(fd *ast.FuncDecl) {
			caller := cg.nodes[funcFor(u.Info, fd)]
			if caller == nil {
				return
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				cg.addCallEdges(u, caller, call, namedTypes, addressTaken)
				return true
			})
		})
	}

	// Deterministic edge order on every node.
	for _, n := range cg.nodes {
		sort.Slice(n.Out, func(i, j int) bool {
			if n.Out[i].Pos != n.Out[j].Pos {
				return n.Out[i].Pos < n.Out[j].Pos
			}
			return n.Out[i].Callee.Key() < n.Out[j].Callee.Key()
		})
		sort.Slice(n.In, func(i, j int) bool {
			if ki, kj := n.In[i].Caller.Key(), n.In[j].Caller.Key(); ki != kj {
				return ki < kj
			}
			return n.In[i].Pos < n.In[j].Pos
		})
	}
	return cg
}

// markFuncValues records declared functions referenced as values (not
// called) anywhere inside e.
func markFuncValues(info *types.Info, e ast.Expr, addressTaken map[*types.Func]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			// The callee position of a nested call is a call, not a value
			// use; its arguments are walked by the enclosing Inspect.
			for _, arg := range call.Args {
				markFuncValues(info, arg, addressTaken)
			}
			_ = call
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := usedObject(info, id).(*types.Func); ok {
				addressTaken[fn] = true
			}
		}
		return true
	})
}

// addCallEdges resolves one call site to its may-callees.
func (cg *CallGraph) addCallEdges(u *Unit, caller *CGNode, call *ast.CallExpr, namedTypes []*types.Named, addressTaken map[*types.Func]bool) {
	addEdge := func(callee *CGNode, kind EdgeKind) {
		if callee == nil {
			return
		}
		e := &CGEdge{Caller: caller, Callee: callee, Pos: call.Pos(), Kind: kind}
		caller.Out = append(caller.Out, e)
		callee.In = append(callee.In, e)
	}

	// Interface-method call?
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection := u.Info.Selections[sel]; selection != nil && selection.Kind() == types.MethodVal {
			if isInterface(selection.Recv()) {
				iface, _ := selection.Recv().Underlying().(*types.Interface)
				mname := sel.Sel.Name
				for _, named := range namedTypes {
					if _, isIface := named.Underlying().(*types.Interface); isIface {
						continue
					}
					var impl types.Type = named
					if !types.Implements(named, iface) {
						ptr := types.NewPointer(named)
						if !types.Implements(ptr, iface) {
							continue
						}
						impl = ptr
					}
					obj, _, _ := types.LookupFieldOrMethod(impl, true, named.Obj().Pkg(), mname)
					if m, ok := obj.(*types.Func); ok {
						addEdge(cg.nodes[m], EdgeIface)
					}
				}
				return
			}
		}
	}

	// Direct call to a declared function or concrete method.
	if fn := calleeFunc(u.Info, call); fn != nil {
		addEdge(cg.nodes[fn], EdgeStatic)
		return
	}

	// Call through a function-typed expression (not a conversion, not a
	// builtin): resolve to address-taken functions of identical signature.
	fun := ast.Unparen(call.Fun)
	if _, isLit := fun.(*ast.FuncLit); isLit {
		return // body is attributed to the encloser already
	}
	tv, ok := u.Info.Types[fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for fn := range addressTaken {
		callee := cg.nodes[fn]
		if callee == nil {
			continue
		}
		csig, _ := fn.Type().(*types.Signature)
		if csig == nil || csig.Recv() != nil {
			continue
		}
		if types.Identical(stripRecv(csig), stripRecv(sig)) {
			addEdge(callee, EdgeFuncValue)
		}
	}
}

// stripRecv returns the signature without its receiver, for value-level
// identity comparison.
func stripRecv(sig *types.Signature) *types.Signature {
	if sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

// rootsByKey collects nodes whose Key has the given suffix within units
// accepted by in (used by passes to find their entry points in both the
// real module and fixture packages).
func (cg *CallGraph) rootsByKey(in func(*Unit) bool, suffixes ...string) []*CGNode {
	var out []*CGNode
	for _, n := range cg.Nodes() {
		if in != nil && !in(n.Unit) {
			continue
		}
		key := n.Key()
		for _, suf := range suffixes {
			if strings.HasSuffix(key, suf) {
				out = append(out, n)
				break
			}
		}
	}
	return out
}
