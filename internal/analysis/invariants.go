package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// Invariants enforces the correctness-harness contract on cache
// organizations: every type with LLC-style insert/evict mutators (Fill
// and WriteBack methods) must expose a CheckInvariants() error method so
// the differential oracle and the scheme's own tests can audit its
// structure after arbitrary operation sequences — and the package's
// tests must actually call it. A mutator-bearing type without a checker
// (or a checker no test exercises) is exactly how a packing bug survives
// until it corrupts a golden file.
type Invariants struct{}

func (*Invariants) Name() string { return "invariants" }
func (*Invariants) Doc() string {
	return "require LLC-like types (Fill/WriteBack mutators) to implement CheckInvariants() error and their package tests to call it"
}

func (*Invariants) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "invariants" ||
		u.InPaths(prog, "internal/cache", "internal/baseline", "internal/core")
}

func (iv *Invariants) Run(prog *Program, u *Unit) []Finding {
	if u.Pkg == nil {
		return nil
	}
	var out []Finding

	// Collect the package's named types with Fill+WriteBack mutators.
	type schemeType struct {
		name *types.TypeName
		ok   bool // has CheckInvariants() error
	}
	var schemes []schemeType
	scope := u.Pkg.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue // the LLC interface itself, not an organization
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		if lookupMethod(ms, "Fill") == nil || lookupMethod(ms, "WriteBack") == nil {
			continue
		}
		chk := lookupMethod(ms, "CheckInvariants")
		ok = chk != nil && checkerSignature(chk)
		if !ok {
			out = append(out, Finding{Pos: tn.Pos(), Message: fmt.Sprintf(
				"%s has insert/evict mutators (Fill, WriteBack) but no CheckInvariants() error method; the correctness harness cannot audit it",
				tn.Name())})
		}
		schemes = append(schemes, schemeType{name: tn, ok: ok})
	}

	// Test coverage: some test file in the package directory must call
	// CheckInvariants when a checkable type exists.
	if testsCallCheckInvariants(u) {
		return out
	}
	for _, s := range schemes {
		if s.ok {
			out = append(out, Finding{Pos: s.name.Pos(), Message: fmt.Sprintf(
				"%s implements CheckInvariants but no test file in this package ever calls it; invariant checking that never runs catches nothing",
				s.name.Name())})
		}
	}
	return out
}

// lookupMethod finds a method by name in a method set.
func lookupMethod(ms *types.MethodSet, name string) *types.Func {
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Name() == name {
			return fn
		}
	}
	return nil
}

// checkerSignature reports whether fn looks like CheckInvariants() error.
func checkerSignature(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	return sig.Results().At(0).Type().String() == "error"
}

// testsCallCheckInvariants scans the unit's (un-type-checked) test files
// for any x.CheckInvariants(...) call.
func testsCallCheckInvariants(u *Unit) bool {
	for _, f := range u.TestFiles {
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "CheckInvariants" {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
