package analysis

import (
	"bytes"
	"strings"
	"testing"
)

// cgFixture loads the fixture program and returns the call graph plus a
// lookup helper scoped to the callgraph fixture package.
func cgFixture(t *testing.T) (*CallGraph, func(suffix string) *CGNode) {
	t.Helper()
	prog := loadFixtures(t)
	cg := prog.CallGraph()
	inFixture := func(u *Unit) bool { return u.Fixture() == "callgraph" }
	node := func(suffix string) *CGNode {
		nodes := cg.rootsByKey(inFixture, suffix)
		if len(nodes) != 1 {
			t.Fatalf("want exactly one node with key suffix %q, got %d", suffix, len(nodes))
		}
		return nodes[0]
	}
	return cg, node
}

// edgeTo reports whether n has an out-edge of the given kind to a
// callee whose key ends in suffix.
func edgeTo(n *CGNode, kind EdgeKind, suffix string) bool {
	for _, e := range n.Out {
		if e.Kind == kind && strings.HasSuffix(e.Callee.Key(), suffix) {
			return true
		}
	}
	return false
}

func TestCallGraphEdgeKinds(t *testing.T) {
	_, node := cgFixture(t)

	entry := node("callgraph.entry")
	for _, callee := range []string{"callgraph.direct", "callgraph.indirect", "callgraph.invoke", "callgraph.viaIface"} {
		if !edgeTo(entry, EdgeStatic, callee) {
			t.Errorf("entry missing static edge to %s", callee)
		}
	}

	if !edgeTo(node("callgraph.direct"), EdgeStatic, "callgraph.leaf") {
		t.Error("direct missing static edge to leaf")
	}

	// Calls through generic instantiations resolve to the declarations.
	generic := node("callgraph.generic")
	for _, callee := range []string{"callgraph.newBox", "callgraph.box.get", "callgraph.leaf"} {
		if !edgeTo(generic, EdgeStatic, callee) {
			t.Errorf("generic missing static edge to %s", callee)
		}
	}

	// Interface call resolves to every implementation in the module.
	viaIface := node("callgraph.viaIface")
	for _, impl := range []string{"callgraph.english.Greet", "callgraph.french.Greet"} {
		if !edgeTo(viaIface, EdgeIface, impl) {
			t.Errorf("viaIface missing iface edge to %s", impl)
		}
	}

	// The call through the function value edges to the address-taken
	// target, and the edge carries the funcvalue kind, not static.
	indirect := node("callgraph.indirect")
	if !edgeTo(indirect, EdgeFuncValue, "callgraph.leaf") {
		t.Error("indirect missing funcvalue edge to leaf")
	}
	if edgeTo(indirect, EdgeStatic, "callgraph.leaf") {
		t.Error("indirect must not have a static edge to leaf")
	}
}

func TestCallGraphReachability(t *testing.T) {
	cg, node := cgFixture(t)
	entry := node("callgraph.entry")

	semantic := cg.Reachable([]*CGNode{entry}, StaticAndIface)
	for _, want := range []string{"callgraph.leaf", "callgraph.english.Greet", "callgraph.french.Greet", "callgraph.invoke"} {
		if !semantic[node(want)] {
			t.Errorf("%s not reachable under StaticAndIface", want)
		}
	}
	// onlyViaValue is reached exclusively through a funcvalue edge, so
	// the semantic filter excludes it while the unfiltered walk keeps it.
	if semantic[node("callgraph.onlyViaValue")] {
		t.Error("onlyViaValue reachable under StaticAndIface; funcvalue edges must be excluded")
	}
	all := cg.Reachable([]*CGNode{entry}, nil)
	if !all[node("callgraph.onlyViaValue")] {
		t.Error("onlyViaValue not reachable with the nil (follow-everything) filter")
	}
	if semantic[node("callgraph.isolated")] || all[node("callgraph.isolated")] {
		t.Error("isolated must be unreachable from entry")
	}
}

func TestCallGraphPathTo(t *testing.T) {
	cg, node := cgFixture(t)
	entry := node("callgraph.entry")

	path := cg.PathTo([]*CGNode{entry}, node("callgraph.english.Greet"), StaticAndIface)
	if len(path) != 3 {
		t.Fatalf("path = %v, want 3 hops entry -> viaIface -> Greet", path)
	}
	if !strings.HasSuffix(path[0], "callgraph.entry") ||
		!strings.HasSuffix(path[1], "callgraph.viaIface") ||
		!strings.HasSuffix(path[2], "callgraph.english.Greet") {
		t.Errorf("unexpected path %v", path)
	}

	if p := cg.PathTo([]*CGNode{entry}, node("callgraph.isolated"), nil); p != nil {
		t.Errorf("path to unreachable node = %v, want nil", p)
	}
}

func TestCallGraphDumpDeterministic(t *testing.T) {
	cg, _ := cgFixture(t)
	var a, b bytes.Buffer
	cg.Dump(&a)
	cg.Dump(&b)
	if a.String() != b.String() {
		t.Error("Dump output differs between runs over the same graph")
	}
	if !strings.HasPrefix(a.String(), "callgraph: ") {
		t.Errorf("missing summary header:\n%.200s", a.String())
	}
	for _, want := range []string{"[static]", "[iface]", "[funcvalue]", "callgraph.entry -> "} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("dump missing %q", want)
		}
	}
}
