package analysis

import (
	"fmt"
	"go/ast"
)

// SpanBalance enforces the tracing contract obs.Tracer.StartSpan
// documents: every started span must be ended on all paths. A span is
// committed to the store the moment it starts, so one that can never be
// ended exports forever as "open" and skews every duration rollup. The
// accepted patterns mirror ctxleak's:
//
//   - defer sp.End() (directly, inside a deferred func literal, or as a
//     deferred call's argument);
//   - storing the span where a longer-lived owner ends it: a struct
//     field, a call argument, the RHS of another assignment, a
//     composite literal, a return value, or a channel send.
//
// A direct, non-deferred sp.End() alone does not count — it only runs
// on the paths that reach it, and a panic or early return between
// StartSpan and End leaves the span open. Discarding the result
// (expression statement or `_`) is always a finding: that span is
// unreachable and can never be ended by anyone.
type SpanBalance struct{}

func (*SpanBalance) Name() string { return "spanbalance" }
func (*SpanBalance) Doc() string {
	return "require every StartSpan result to be deferred-ended or stored for a longer-lived owner to end; never discarded or left to conditional End calls"
}

func (*SpanBalance) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "spanbalance" || u.InPaths(prog, "internal/obs", "internal/server", "internal/cluster")
}

func (s *SpanBalance) Run(prog *Program, u *Unit) []Finding {
	var out []Finding
	eachFuncDecl(u, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isStartSpan(call) {
					out = append(out, Finding{Pos: call.Pos(), Message: "the span from StartSpan is discarded; nothing can ever End it (bind the result, or drop the call)"})
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 || len(n.Lhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok || !isStartSpan(call) {
					return true
				}
				id, isIdent := ast.Unparen(n.Lhs[0]).(*ast.Ident)
				if !isIdent {
					// j.span = ... — stored in longer-lived state whose
					// owner's teardown ends it.
					return true
				}
				if id.Name == "_" {
					out = append(out, Finding{Pos: id.Pos(), Message: "the span from StartSpan is discarded as _; nothing can ever End it"})
					return true
				}
				obj := usedObject(u.Info, id)
				if obj == nil {
					return true
				}
				if !deferredOrEscapes(u.Info, fd.Body, obj, id) {
					out = append(out, Finding{Pos: id.Pos(), Message: fmt.Sprintf(
						"the span %s is neither deferred-ended nor stored; a panic or early return leaves it open forever (defer %s.End())",
						id.Name, id.Name)})
				}
			}
			return true
		})
	})
	return out
}

// isStartSpan reports whether the call invokes something named
// StartSpan. Matching by name rather than by concrete type keeps the
// pass applicable to any tracer shape (including fixtures, which cannot
// import morc packages).
func isStartSpan(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "StartSpan"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "StartSpan"
	}
	return false
}
