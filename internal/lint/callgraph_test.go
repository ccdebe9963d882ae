package lint

import (
	"bytes"
	"encoding/json"
	"testing"
)

// loadFixtureGraph builds the call graph of testdata/src/<name> from a
// fresh load, so repeated calls are fully independent builds (the
// determinism test depends on that).
func loadFixtureGraph(t *testing.T, name string) *CallGraph {
	t.Helper()
	prog, err := loadFixture(name)
	if err != nil {
		t.Fatal(err)
	}
	return buildCallGraph(prog.Fset, prog.Packages)
}

// node finds a graph node by display name.
func node(t *testing.T, g *CallGraph, name string) *CGNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("graph has no node %q; have %v", name, nodeNames(g))
	return nil
}

func nodeNames(g *CallGraph) []string {
	out := make([]string, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n.Name)
	}
	return out
}

// edgeTo reports whether n has an edge of the given kind to callee.
func edgeTo(n *CGNode, callee string, kind CGEdgeKind) bool {
	for _, e := range n.Calls {
		if e.Callee.Name == callee && e.Kind == kind {
			return true
		}
	}
	return false
}

// TestCallGraphInterfaceResolution pins CHA fan-out: an interface method
// call contributes one edge per implementing concrete type, covering both
// pointer-receiver and value-receiver implementations.
func TestCallGraphInterfaceResolution(t *testing.T) {
	g := loadFixtureGraph(t, "callgraph")
	dispatch := node(t, g, "callgraph.dispatch")
	for _, callee := range []string{"callgraph.(*alpha).Step", "callgraph.beta.Step"} {
		if !edgeTo(dispatch, callee, EdgeInterface) {
			t.Errorf("dispatch has no interface edge to %s; edges: %s", callee, edgeDump(dispatch))
		}
	}
	if edgeTo(dispatch, "callgraph.direct", EdgeInterface) {
		t.Error("dispatch gained a bogus interface edge to a plain function")
	}
}

// TestCallGraphFuncValueAndClosureEdges pins the function-value analogue of
// CHA: a call through a func-typed variable resolves to every address-taken
// function or stored literal with an identical signature, and in-place
// literal calls stay static.
func TestCallGraphFuncValueAndClosureEdges(t *testing.T) {
	g := loadFixtureGraph(t, "callgraph")
	driver := node(t, g, "callgraph.driver")

	if !edgeTo(driver, "callgraph.dispatch", EdgeStatic) || !edgeTo(driver, "callgraph.direct", EdgeStatic) {
		t.Errorf("driver is missing a static edge; edges: %s", edgeDump(driver))
	}
	// f() and g() are func() int calls through values: both must fan out to
	// the address-taken candidates of that signature — taken and driver$1 —
	// and must not reach direct, which is never referenced as a value.
	for _, callee := range []string{"callgraph.taken", "callgraph.driver$1"} {
		if !edgeTo(driver, callee, EdgeFuncValue) {
			t.Errorf("driver has no func-value edge to %s; edges: %s", callee, edgeDump(driver))
		}
	}
	if edgeTo(driver, "callgraph.direct", EdgeFuncValue) {
		t.Error("driver func-value call resolved to direct, which is not address-taken")
	}
	if !edgeTo(driver, "callgraph.driver$2", EdgeStatic) {
		t.Errorf("in-place literal call is not a static edge; edges: %s", edgeDump(driver))
	}

	if !node(t, g, "callgraph.taken").AddressTaken {
		t.Error("taken is assigned to a variable but not marked address-taken")
	}
	if node(t, g, "callgraph.direct").AddressTaken {
		t.Error("direct is only ever called but marked address-taken")
	}
	if !node(t, g, "callgraph.driver$1").AddressTaken {
		t.Error("stored closure driver$1 not marked address-taken")
	}
	if node(t, g, "callgraph.driver$2").AddressTaken {
		t.Error("in-place literal driver$2 marked address-taken")
	}
}

func edgeDump(n *CGNode) string {
	var b bytes.Buffer
	for _, e := range n.Calls {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.Callee.Name + "[" + e.Kind.String() + "]")
	}
	return b.String()
}

// TestFuncSymbolBridgesUniverses pins the symbol-string index that repairs
// cross-universe *types.Func identity (source vs export-data views of the
// same declaration): every declared node is reachable through bySym under
// its funcSymbol key, and the rendered symbols are the documented shapes.
func TestFuncSymbolBridgesUniverses(t *testing.T) {
	g := loadFixtureGraph(t, "callgraph")
	for _, n := range g.Nodes {
		if n.Fn == nil {
			continue
		}
		sym := funcSymbol(n.Fn)
		if got := g.bySym[sym]; got != n {
			t.Errorf("bySym[%q] = %v, want node %s", sym, got, n.Name)
		}
		if got := g.NodeOf(n.Fn); got != n {
			t.Errorf("NodeOf(%s) = %v, want the node itself", n.Name, got)
		}
	}
	for name, wantSym := range map[string]string{
		"callgraph.(*alpha).Step": "callgraph.(*alpha).Step",
		"callgraph.beta.Step":     "callgraph.(beta).Step",
		"callgraph.direct":        "callgraph.direct",
	} {
		if got := funcSymbol(node(t, g, name).Fn); got != wantSym {
			t.Errorf("funcSymbol(%s) = %q, want %q", name, got, wantSym)
		}
	}
}

// TestCallGraphDeterministic builds the graph twice from fully independent
// loads and requires byte-identical debug dumps: node order, edge order and
// CHA candidate order must not depend on map iteration. DebugString keeps
// build order, so any such difference survives into the compare.
func TestCallGraphDeterministic(t *testing.T) {
	a := loadFixtureGraph(t, "callgraph").DebugString()
	b := loadFixtureGraph(t, "callgraph").DebugString()
	if a != b {
		t.Errorf("two independent graph builds differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a == "" {
		t.Error("graph dump is empty")
	}
}

// TestRunJSONByteIdentical runs the production driver twice over the same
// packages and requires the -json rendering of the results to be
// byte-identical — the repo-health endpoint diffs these reports, so any
// map-order nondeterminism in the suite is a regression.
func TestRunJSONByteIdentical(t *testing.T) {
	repoRoot, err := repoRootDir()
	if err != nil {
		t.Fatalf("locating repo root: %v", err)
	}
	render := func() []byte {
		diags, err := Run(repoRoot, []string{"./internal/probe/", "./internal/promtext/"}, All())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		b, err := json.Marshal(diags)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Errorf("two driver runs rendered different JSON:\n%s\n%s", a, b)
	}
}

// TestFixtureDiagnosticsByteIdentical covers the same property where
// findings actually exist: two independent fixture runs of the program
// analyzers must serialize identically.
func TestFixtureDiagnosticsByteIdentical(t *testing.T) {
	render := func() []byte {
		b, err := json.Marshal(runFixture(t, "lockorder", AnalyzerLockOrder))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Errorf("two fixture runs rendered different JSON:\n%s\n%s", a, b)
	}
	if bytes.Equal(render(), []byte("[]")) {
		t.Error("lockorder fixture produced no findings; determinism test is vacuous")
	}
}
