// Package callgraph is a fixture for the interprocedural call-graph
// substrate itself. No pass scopes this package, so it must stay
// diagnostic-free; callgraph_test.go loads it and asserts the resolved
// edges, reachability, and dump determinism directly.
package callgraph

// greeter exercises conservative interface resolution: a call through
// it must edge to Greet on every implementing type in the module.
type greeter interface{ Greet() string }

type english struct{}

func (english) Greet() string { return "hello" }

type french struct{}

func (french) Greet() string { return "bonjour" }

// viaIface produces one iface edge per implementation.
func viaIface(g greeter) string { return g.Greet() }

func leaf() int { return 1 }

// direct produces a static edge to leaf.
func direct() int { return leaf() }

// indirect calls through a function value: leaf is address-taken, so
// the call edges to it (and to every other address-taken func() int)
// with kind funcvalue.
func indirect() int {
	f := leaf
	return f()
}

// onlyViaValue is reachable from entry exclusively through a funcvalue
// edge — StaticAndIface reachability must exclude it.
func onlyViaValue() int { return 3 }

func invoke() int {
	f := onlyViaValue
	return f()
}

// box and newBox exercise generics: calls through an instantiation
// (explicit or inferred) must edge to the declared function or method.
type box[T any] struct{ v T }

func (b *box[T]) get() T { return b.v }

func newBox[T any](v T) *box[T] { return &box[T]{v: v} }

func generic() int {
	b := newBox[int](leaf())
	_ = newBox("inferred")
	return b.get()
}

func entry() string {
	_ = direct()
	_ = indirect()
	_ = invoke()
	_ = generic()
	return viaIface(english{})
}

// isolated has no callers and calls nothing: unreachable from entry
// under any edge filter.
func isolated() int { return 2 }
