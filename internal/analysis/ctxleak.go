package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
)

// CtxLeak flags context cancel funcs that can escape without ever being
// called. Every context.WithCancel / WithTimeout / WithDeadline call
// returns a cancel func that must release the context's resources; the
// safe patterns are deferring it (`defer cancel()`) or storing it
// somewhere with a longer lifetime (a struct field, a call argument, a
// return value). A cancel func that is only called on some code paths —
// or discarded outright as `_` — leaks a goroutine and a timer on the
// paths that skip it.
type CtxLeak struct{}

func (*CtxLeak) Name() string { return "ctxleak" }
func (*CtxLeak) Doc() string {
	return "require context cancel funcs to be deferred or stored, never discarded or left to conditional calls"
}

func (*CtxLeak) Scope(prog *Program, u *Unit) bool {
	return true // cheap, and leaks hurt everywhere
}

// cancelFuncs are the context constructors whose last result must be
// released.
var cancelFuncs = map[string]bool{
	"WithCancel": true, "WithTimeout": true, "WithDeadline": true,
	"WithCancelCause": true, "WithTimeoutCause": true, "WithDeadlineCause": true,
}

func (c *CtxLeak) Run(prog *Program, u *Unit) []Finding {
	var out []Finding
	eachFuncDecl(u, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(u.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" || !cancelFuncs[fn.Name()] {
				return true
			}
			cancelID, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident)
			if !ok {
				return true
			}
			if cancelID.Name == "_" {
				out = append(out, Finding{Pos: cancelID.Pos(), Message: fmt.Sprintf(
					"the cancel func from context.%s is discarded; the context's resources are never released", fn.Name())})
				return true
			}
			obj := usedObject(u.Info, cancelID)
			if obj == nil {
				return true
			}
			if !deferredOrEscapes(u.Info, fd.Body, obj, cancelID) {
				out = append(out, Finding{Pos: cancelID.Pos(), Message: fmt.Sprintf(
					"the cancel func from context.%s is neither deferred nor stored; a panic or early return leaks the context (defer %s())",
					fn.Name(), cancelID.Name)})
			}
			return true
		})
	})
	return out
}

// deferredOrEscapes reports whether a resource-owning object (a
// context's cancel func, a span) is released by a defer — `defer
// obj()`, `defer obj.M()`, a deferred func literal mentioning obj, or a
// deferred call taking it as an argument — or escapes to a longer-lived
// owner: stored in a field or variable, put in a composite literal,
// passed to a call, returned, or sent on a channel, anywhere in the
// function body. Direct calls alone do not count: they only run on the
// paths that reach them. def is obj's defining identifier.
func deferredOrEscapes(info *types.Info, body *ast.BlockStmt, obj types.Object, def *ast.Ident) bool {
	is := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id != def && usedObject(info, id) == obj
	}
	refers := func(e ast.Expr) bool { return refersTo(info, e, obj) }
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			fun := ast.Unparen(n.Call.Fun)
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				fun = sel.X
			}
			_, isLit := fun.(*ast.FuncLit)
			found = is(fun) || isLit && refers(fun) || slices.ContainsFunc(n.Call.Args, refers)
		case *ast.CallExpr:
			found = slices.ContainsFunc(n.Args, is)
		case *ast.AssignStmt:
			found = slices.ContainsFunc(n.Rhs, is)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				found = found || is(el)
			}
		case *ast.ReturnStmt:
			found = slices.ContainsFunc(n.Results, refers)
		case *ast.SendStmt:
			found = refers(n.Value)
		}
		return !found
	})
	return found
}

// refersTo reports whether expr mentions obj.
func refersTo(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && usedObject(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
