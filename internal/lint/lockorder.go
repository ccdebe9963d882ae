package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerLockOrder proves the serving layers' mutexes are acquired in one
// global order and never held across blocking operations. It is a
// whole-program analyzer: lock classes are mutex-typed struct fields,
// package-level vars, and locals across internal/server, internal/cluster,
// and internal/flight; acquisition edges (including transitive ones through
// static calls) form a directed graph, and any edge on a cycle — or any
// re-acquisition of a held class — is a potential deadlock. Separately, a
// blocking operation (channel send/receive, select without default,
// WaitGroup/Cond Wait, time.Sleep, outbound HTTP, or I/O to a
// caller-supplied writer) reached while a lock is held turns a mutex into a
// latency amplifier and is flagged.
//
// The held-set tracking is lexical (source order within a function body;
// deferred unlocks pin the lock to function end), which over-approximates
// branches that release early — suppress genuinely impossible interleavings
// with //lint:ignore hpelint/lockorder.
var AnalyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "detect lock-order cycles and blocking operations performed while holding a mutex",
	Run:  runLockOrder,
}

// lockPkgScope is the production footprint: the layers that compose mutexes
// across goroutines. Simulator packages are single-threaded by construction
// (ROADMAP invariant) and stay out.
var lockPkgScope = []string{
	"internal/server",
	"internal/cluster",
	"internal/flight",
}

type lockOpKind int

const (
	lockOpNone lockOpKind = iota
	lockOpAcquire
	lockOpRelease
)

// lockCall is one static call site together with the lock classes held at it.
type lockCall struct {
	callee *CGNode
	held   []string
	pos    token.Pos
}

// blockSite is one potentially blocking operation and the held set at it.
type blockSite struct {
	desc string
	held []string
	pos  token.Pos
}

// lockEdge is one "acquired to while holding from" observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // callee name for transitive edges, "" for direct
}

// lockSummary is the per-function digest the fixpoint runs on.
type lockSummary struct {
	node     *CGNode
	acquires map[string]token.Pos // classes this body acquires directly
	edges    []lockEdge           // direct nested acquisitions, source order
	calls    []lockCall           // static calls, source order
	blocks   []blockSite          // blocking ops, source order
}

func runLockOrder(pass *Pass) {
	g := pass.Graph()
	classes := collectLockClasses(pass)

	// Phase 1: scan every in-scope function body lexically.
	var sums []*lockSummary
	byNode := map[*CGNode]*lockSummary{}
	for _, n := range g.Nodes {
		if !pass.InScope(n.Pkg.ImportPath, lockPkgScope, nil) || n.Body == nil {
			continue
		}
		s := scanLocks(g, n, classes)
		sums = append(sums, s)
		byNode[n] = s
	}

	// Phase 2: fixpoint over static calls — which classes does a function
	// acquire transitively, and can it block? Propagation order follows the
	// deterministic node order, so the derived facts are stable.
	transAcq := map[*lockSummary]map[string]bool{}
	mayBlock := map[*lockSummary]string{}
	for _, s := range sums {
		acq := map[string]bool{}
		for c := range s.acquires {
			acq[c] = true
		}
		transAcq[s] = acq
		if len(s.blocks) > 0 {
			mayBlock[s] = s.blocks[0].desc
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			for _, c := range s.calls {
				callee := byNode[c.callee]
				if callee == nil {
					continue
				}
				for cls := range transAcq[callee] {
					if !transAcq[s][cls] {
						transAcq[s][cls] = true
						changed = true
					}
				}
				if _, ok := mayBlock[s]; !ok {
					if d, ok := mayBlock[callee]; ok {
						mayBlock[s] = d
						changed = true
					}
				}
			}
		}
	}

	// Phase 3: assemble the class-order graph (direct edges plus edges
	// induced by calling lock-acquiring functions under a lock), then flag
	// every edge that sits on a cycle.
	var edges []lockEdge
	seen := map[string]bool{}
	addEdge := func(e lockEdge) {
		key := e.from + "\x00" + e.to
		if seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, e)
	}
	for _, s := range sums {
		for _, e := range s.edges {
			addEdge(e)
		}
		for _, c := range s.calls {
			callee := byNode[c.callee]
			if callee == nil {
				continue
			}
			for _, cls := range sortedClassSet(transAcq[callee]) {
				for _, h := range c.held {
					addEdge(lockEdge{from: h, to: cls, pos: c.pos, via: c.callee.Name})
				}
			}
		}
	}
	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	for _, e := range edges {
		switch {
		case e.from == e.to && e.via == "":
			pass.Reportf(e.pos, "reacquiring %s while it is already held (self-deadlock)", e.to)
		case e.from == e.to:
			pass.Reportf(e.pos, "call to %s acquires %s while it is already held (self-deadlock)", e.via, e.to)
		case classReaches(adj, e.to, e.from) && e.via == "":
			pass.Reportf(e.pos, "acquiring %s while holding %s is part of a lock-order cycle", e.to, e.from)
		case classReaches(adj, e.to, e.from):
			pass.Reportf(e.pos, "call to %s acquires %s while holding %s — part of a lock-order cycle", e.via, e.to, e.from)
		}
	}

	// Phase 4: blocking operations under a held lock — direct sites, then
	// calls into functions that may block.
	for _, s := range sums {
		for _, b := range s.blocks {
			if len(b.held) > 0 {
				pass.Reportf(b.pos, "potentially blocking %s while holding %s", b.desc, strings.Join(b.held, ", "))
			}
		}
		for _, c := range s.calls {
			callee := byNode[c.callee]
			if callee == nil || len(c.held) == 0 {
				continue
			}
			if d, ok := mayBlock[callee]; ok {
				pass.Reportf(c.pos, "call to %s may block (%s) while holding %s", c.callee.Name, d, strings.Join(c.held, ", "))
			}
		}
	}
}

// sortedClassSet renders a class set in stable order.
func sortedClassSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// classReaches reports whether from can reach to in the class-order graph.
func classReaches(adj map[string]map[string]bool, from, to string) bool {
	if from == to {
		return true
	}
	visited := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range sortedClassSet(adj[cur]) {
			if next == to {
				return true
			}
			if !visited[next] {
				visited[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// collectLockClasses names every mutex-typed struct field declared by an
// in-scope package as "pkg.Type.field". Package-level and local mutexes are
// named lazily at their first acquisition site.
func collectLockClasses(pass *Pass) map[*types.Var]string {
	classes := map[*types.Var]string{}
	for _, pkg := range pass.Packages {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if isMutexType(f.Type()) {
					classes[f] = pkg.Types.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	return classes
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return namedTypeIn(t, "sync", "Mutex") || namedTypeIn(t, "sync", "RWMutex")
}

// lockScanner walks one function body in source order, maintaining the
// lexical held set.
type lockScanner struct {
	g       *CallGraph
	node    *CGNode
	info    *types.Info
	classes map[*types.Var]string
	held    []string
	sticky  map[string]bool // deferred unlocks: held to function end
	sum     *lockSummary
}

func scanLocks(g *CallGraph, n *CGNode, classes map[*types.Var]string) *lockSummary {
	s := &lockScanner{
		g:       g,
		node:    n,
		info:    n.Pkg.Info,
		classes: classes,
		sticky:  map[string]bool{},
		sum:     &lockSummary{node: n, acquires: map[string]token.Pos{}},
	}
	ast.Inspect(n.Body, s.visit)
	return s.sum
}

func (s *lockScanner) visit(nd ast.Node) bool {
	switch v := nd.(type) {
	case *ast.FuncLit:
		// Nested closures are separate call-graph nodes with their own scan.
		return false
	case *ast.GoStmt:
		// The spawned call runs on another goroutine; the held set here
		// does not constrain it.
		return false
	case *ast.DeferStmt:
		if cls, op := s.lockOp(v.Call); op == lockOpRelease && cls != "" {
			s.sticky[cls] = true
		}
		return false
	case *ast.CallExpr:
		if cls, op := s.lockOp(v); op != lockOpNone {
			if cls != "" {
				s.applyLockOp(cls, op, v.Pos())
			}
			return false
		}
		s.checkCall(v)
		return true
	case *ast.SendStmt:
		s.block("channel send", v.Arrow)
	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			s.block("channel receive", v.OpPos)
		}
	case *ast.SelectStmt:
		if !selectHasDefault(v) {
			s.block("select without default", v.Select)
		}
	case *ast.RangeStmt:
		if t := s.info.TypeOf(v.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				s.block("range over channel", v.For)
			}
		}
	}
	return true
}

// applyLockOp mutates the lexical held set for one Lock/Unlock call.
func (s *lockScanner) applyLockOp(cls string, op lockOpKind, pos token.Pos) {
	switch op {
	case lockOpAcquire:
		if _, ok := s.sum.acquires[cls]; !ok {
			s.sum.acquires[cls] = pos
		}
		for _, h := range s.held {
			s.sum.edges = append(s.sum.edges, lockEdge{from: h, to: cls, pos: pos})
		}
		s.held = append(s.held, cls)
	case lockOpRelease:
		if s.sticky[cls] {
			return
		}
		for i := len(s.held) - 1; i >= 0; i-- {
			if s.held[i] == cls {
				s.held = append(s.held[:i], s.held[i+1:]...)
				return
			}
		}
	}
}

// block records one potentially blocking operation with the held snapshot.
func (s *lockScanner) block(desc string, pos token.Pos) {
	s.sum.blocks = append(s.sum.blocks, blockSite{desc: desc, held: append([]string(nil), s.held...), pos: pos})
}

// checkCall classifies a non-lock call: a known blocking primitive, an I/O
// sink for a caller-supplied writer, or a static call recorded for the
// transitive fixpoint.
func (s *lockScanner) checkCall(call *ast.CallExpr) {
	if desc := blockingCallDesc(s.info, call); desc != "" {
		s.block(desc, call.Pos())
		return
	}
	if s.writesCallerWriter(call) {
		s.block("I/O to a caller-supplied writer", call.Pos())
		return
	}
	fn := calleeFunc(s.info, call)
	if fn == nil {
		return
	}
	callee := s.g.NodeOf(fn)
	if callee == nil {
		return
	}
	s.sum.calls = append(s.sum.calls, lockCall{
		callee: callee,
		held:   append([]string(nil), s.held...),
		pos:    call.Pos(),
	})
}

// blockingCallDesc names the blocking primitive a call performs, or "".
func blockingCallDesc(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	var recv types.Type
	if sig != nil && sig.Recv() != nil {
		recv = sig.Recv().Type()
	}
	switch {
	case fn.Name() == "Wait" && (namedTypeIn(recv, "sync", "WaitGroup") || namedTypeIn(recv, "sync", "Cond")):
		return "sync." + strings.TrimPrefix(receiverName(fn), "*") + ".Wait"
	case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case namedTypeIn(recv, "http", "Client"):
		return "outbound HTTP request (http.Client." + fn.Name() + ")"
	case fn.Pkg().Path() == "net/http" && (fn.Name() == "Get" || fn.Name() == "Post" || fn.Name() == "Head" || fn.Name() == "PostForm"):
		return "outbound HTTP request (http." + fn.Name() + ")"
	}
	return ""
}

// writesCallerWriter reports whether the call hands a caller-supplied
// stream — a parameter of the enclosing function typed io.Writer or
// net/http.ResponseWriter — to another function (or invokes a method on
// it). Under a held lock that is I/O of unbounded latency: the writer is
// usually an HTTP response heading for a socket.
func (s *lockScanner) writesCallerWriter(call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && s.isCallerWriterParam(sel.X) {
		return true
	}
	for _, arg := range call.Args {
		if s.isCallerWriterParam(arg) {
			return true
		}
	}
	return false
}

// isCallerWriterParam reports whether e is an identifier bound to a
// writer-typed parameter of the function being scanned.
func (s *lockScanner) isCallerWriterParam(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := s.info.Uses[id].(*types.Var)
	if !ok || !isParamOf(s.node, v) {
		return false
	}
	return namedTypeIn(v.Type(), "io", "Writer") || namedTypeIn(v.Type(), "http", "ResponseWriter")
}

// lockOp classifies a call as a mutex acquire/release and resolves the lock
// class it targets ("" when the mutex identity cannot be named, e.g. a
// mutex passed by pointer).
func (s *lockScanner) lockOp(call *ast.CallExpr) (string, lockOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", lockOpNone
	}
	fn, ok := s.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockOpNone
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return "", lockOpNone
	}
	var op lockOpKind
	switch fn.Name() {
	case "Lock", "RLock":
		op = lockOpAcquire
	case "Unlock", "RUnlock":
		op = lockOpRelease
	default:
		return "", lockOpNone // TryLock and friends do not block
	}
	return s.lockClassOf(sel), op
}

// lockClassOf names the mutex a Lock/Unlock selector targets.
func (s *lockScanner) lockClassOf(sel *ast.SelectorExpr) string {
	// Promoted method on an embedded mutex: walk the selection's field path
	// to the embedded field.
	if msel, ok := s.info.Selections[sel]; ok && len(msel.Index()) > 1 {
		t := s.info.TypeOf(sel.X)
		var fld *types.Var
		idx := msel.Index()
		for _, i := range idx[:len(idx)-1] {
			st, ok := derefStruct(t)
			if !ok {
				return ""
			}
			fld = st.Field(i)
			t = fld.Type()
		}
		return s.fieldClassName(fld)
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if fsel, ok := s.info.Selections[x]; ok && fsel.Kind() == types.FieldVal {
			t := fsel.Recv()
			var fld *types.Var
			for _, i := range fsel.Index() {
				st, ok := derefStruct(t)
				if !ok {
					return ""
				}
				fld = st.Field(i)
				t = fld.Type()
			}
			return s.fieldClassName(fld)
		}
		// Qualified package-level var: pkg.Mu.
		if v, ok := s.info.Uses[x.Sel].(*types.Var); ok {
			return s.varClassName(v)
		}
	case *ast.Ident:
		if v, ok := s.info.Uses[x].(*types.Var); ok {
			return s.varClassName(v)
		}
	}
	return ""
}

// fieldClassName resolves a mutex field to its declared class name.
func (s *lockScanner) fieldClassName(fld *types.Var) string {
	if fld == nil {
		return ""
	}
	if name, ok := s.classes[fld]; ok {
		return name
	}
	if fld.Pkg() != nil {
		return fld.Pkg().Name() + "." + fld.Name()
	}
	return fld.Name()
}

// varClassName names a non-field mutex var: package-level vars by package,
// locals by enclosing function. Parameters have no nameable identity.
func (s *lockScanner) varClassName(v *types.Var) string {
	if v.IsField() {
		return s.fieldClassName(v)
	}
	if isParamOf(s.node, v) {
		return ""
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Name() + "." + v.Name()
	}
	return s.node.Name + "." + v.Name()
}

// derefStruct unwraps pointers and named types down to a struct.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// selectHasDefault reports whether a select statement has a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
