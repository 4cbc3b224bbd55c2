package analysis

import (
	"go/ast"
	"go/types"
)

// usedObject resolves an identifier to its object (use or def).
func usedObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// calls through function-typed values. Calls of generic functions and
// of methods on instantiated generic types resolve to the declared
// function, the one the call graph has a node for.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) { // explicit instantiation: f[T](...)
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var id *ast.Ident
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := usedObject(info, id).(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// isPkgCall reports whether call invokes pkgPath.name (e.g. "time".Now).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// declaredWithin reports whether obj's declaration lies inside node's
// source range — i.e. the object is local to that node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != 0 &&
		obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// baseIdent walks to the root identifier of a selector/index/deref chain
// (x in x.a[i].b), or nil if the chain is rooted in a call or literal.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isInterface reports whether t is an interface type (after following
// named types).
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// namedType returns t's (or *t's) named type, if any.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	return n
}

// isNamed reports whether t is (a pointer to) the named type pkg.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// funcFor returns the *types.Func declared by a FuncDecl.
func funcFor(info *types.Info, fd *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return fn
}

// eachFuncDecl calls fn for every function declaration with a body in
// the unit's (non-test) files.
func eachFuncDecl(u *Unit, fn func(fd *ast.FuncDecl)) {
	for _, f := range u.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
