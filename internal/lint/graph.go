package lint

// This file is the interprocedural layer under leasevet v2: a whole-module
// call graph. PR 5's analyzers are single-function; the invariants that
// actually broke in later PRs — blocking calls reached through helpers while
// a shard mutex is held, allocations buried two calls deep in the wire path,
// snapshot code aliasing live table memory — are properties of call
// *chains*, so the graph analyzers (hotalloc, lockflow, spawnjoin,
// snapshotcopy) need to know who calls whom across package boundaries.
//
// Calls resolve through the packages' go/types information to the callee's
// *types.Func. The soundness stance, documented in DESIGN.md §13:
//
//   - a call through an interface is OVER-APPROXIMATED to the method of
//     every in-module named type T for which T or *T implements the
//     interface (dispatch may reach any of them);
//   - calls into packages outside the module are leaves (the stdlib is not
//     traversed; analyzers name the external calls they care about);
//   - calls of function values are leaves; creating a closure or a method
//     value is an EdgeRef, so reachability can still follow it;
//   - reflection is ignored.
//
// Over-approximation errs toward reporting for the reachability analyzers
// (a finding can be silenced with //lint:allow plus a reason); the opaque
// external layer errs toward silence, matching the PR 5 house style.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"slices"
	"sort"
	"strings"
)

// EdgeKind classifies how control may pass from caller to callee.
type EdgeKind int

const (
	// EdgeCall is a plain (possibly deferred-free) function or method call.
	EdgeCall EdgeKind = iota
	// EdgeGo spawns the callee in a new goroutine; lock and hot-path
	// contexts do not propagate across it.
	EdgeGo
	// EdgeDefer defers the callee to function exit.
	EdgeDefer
	// EdgeRef creates or references the callee as a value (a closure
	// literal, a method value) without calling it at this site; it may run
	// later.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	case EdgeRef:
		return "ref"
	}
	return "?"
}

// Edge is one resolved call site.
type Edge struct {
	Kind   EdgeKind
	Callee *FuncNode // nil when the callee is outside the module
	// Target is the display name of the callee: the node's name, or the
	// qualified external name ("fmt.Errorf", "(*bufio.Writer).Flush").
	Target string
	// Site is the call expression (nil for bare closure-literal references)
	// and Pos its position in the caller's FileSet.
	Site *ast.CallExpr
	Pos  token.Pos
	// OverApprox marks interface-dispatch edges: the callee is one of the
	// in-module methods the interface call may reach.
	OverApprox bool
}

// FuncNode is one function-shaped body in the graph: a declaration or a
// function literal.
type FuncNode struct {
	Pkg  *Package
	File *ast.File
	// Name is the display name: "AppendEncode", "(*tcpConn).SendFrameBuf",
	// "flushLoop.func1" for literals.
	Name string
	// RecvType is the local name of the receiver's named type for methods.
	RecvType string
	// Func is the declared function; nil for literals.
	Func   *types.Func
	Decl   *ast.FuncDecl
	Lit    *ast.FuncLit
	Parent *FuncNode // enclosing function for literals
	Edges  []Edge
	// HotPath and SnapshotRoot record //lint:hotpath and //lint:snapshotroot
	// annotations on the declaration.
	HotPath      bool
	SnapshotRoot bool
}

// Body returns the function's block, whichever form it is.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Signature returns the function's type (with its receiver, for methods).
func (n *FuncNode) Signature() *types.Signature {
	if n.Func != nil {
		return n.Func.Type().(*types.Signature)
	}
	return n.Pkg.Info.TypeOf(n.Lit).(*types.Signature)
}

// Pos returns the declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Position resolves a pos from this node's file set.
func (n *FuncNode) Position(pos token.Pos) token.Position {
	return n.Pkg.Fset.Position(pos)
}

// String renders "pkgpath.Name".
func (n *FuncNode) String() string { return n.Pkg.Path + "." + n.Name }

// Graph is the whole-module call graph.
type Graph struct {
	Pkgs  []*Package
	Nodes []*FuncNode

	byPath map[string]*Package
	byFunc map[*types.Func]*FuncNode
	// named holds the module's non-generic, non-interface named types: the
	// candidates of interface dispatch.
	named    []*types.Named
	dispatch map[dispatchKey][]*FuncNode
	// edgesBySite lets statement-level analyzers (lockflow) look up what a
	// call expression resolved to.
	edgesBySite map[*ast.CallExpr][]Edge
	// fileToPkg maps a position's filename back to its package, for scope
	// and allow filtering of graph findings.
	fileToPkg map[string]*Package
}

type dispatchKey struct {
	iface  *types.Interface
	method *types.Func
}

// PackageOf maps a resolved diagnostic filename back to its package.
func (g *Graph) PackageOf(filename string) *Package { return g.fileToPkg[filename] }

// EdgesAt returns the edges resolved for one call expression.
func (g *Graph) EdgesAt(call *ast.CallExpr) []Edge { return g.edgesBySite[call] }

// inModule reports whether p is one of the graph's packages.
func (g *Graph) inModule(p *types.Package) bool { return p != nil && g.byPath[p.Path()] != nil }

// nodeOf returns the node declaring fn, or nil when fn is outside the module.
func (g *Graph) nodeOf(fn *types.Func) *FuncNode { return g.byFunc[fn.Origin()] }

// BuildGraph indexes every loaded package and resolves a call graph over
// them. It cannot fail: unresolvable constructs degrade per the soundness
// stance above.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		Pkgs:        pkgs,
		byPath:      make(map[string]*Package),
		byFunc:      make(map[*types.Func]*FuncNode),
		dispatch:    make(map[dispatchKey][]*FuncNode),
		edgesBySite: make(map[*ast.CallExpr][]Edge),
		fileToPkg:   make(map[string]*Package),
	}
	// Pass 1: dispatch candidates and declaration nodes.
	for _, pkg := range pkgs {
		g.byPath[pkg.Path] = pkg
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if t, ok := tn.Type().(*types.Named); ok && !types.IsInterface(t) && t.TypeParams().Len() == 0 {
					g.named = append(g.named, t)
				}
			}
		}
		for _, f := range pkg.Files {
			g.fileToPkg[pkg.Fset.Position(f.Pos()).Filename] = pkg
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue // a blank function: never called
				}
				node := &FuncNode{Pkg: pkg, File: f, Decl: d, Func: fn, Name: d.Name.Name}
				if ann := declAnnotations(d); ann != nil {
					node.HotPath = ann["hotpath"]
					node.SnapshotRoot = ann["snapshotroot"]
				}
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if rt := recvTypeName(d.Recv.List[0].Type); rt != "" {
						node.RecvType = rt
						node.Name = "(*" + rt + ")." + d.Name.Name
					}
				}
				g.byFunc[fn] = node
				g.Nodes = append(g.Nodes, node)
			}
		}
	}
	// Pass 2: resolve bodies. Literal nodes are appended as they are found
	// and resolved by the walk that creates them.
	for _, node := range g.Nodes {
		w := &graphWalker{g: g, node: node, info: node.Pkg.Info}
		w.walk(node.Body())
	}
	return g
}

// declAnnotations scans a declaration's doc comment for //lint:<name> marker
// lines.
func declAnnotations(d *ast.FuncDecl) map[string]bool {
	if d.Doc == nil {
		return nil
	}
	var out map[string]bool
	for _, c := range d.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, "//lint:") {
			continue
		}
		name := strings.TrimPrefix(text, "//lint:")
		if i := strings.IndexAny(name, " \t"); i >= 0 {
			name = name[:i]
		}
		if out == nil {
			out = make(map[string]bool)
		}
		out[name] = true
	}
	return out
}

// recvTypeName extracts the named type of a method receiver.
func recvTypeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(v.X)
	case *ast.Ident:
		return v.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(v.X)
	case *ast.IndexListExpr:
		return recvTypeName(v.X)
	case *ast.ParenExpr:
		return recvTypeName(v.X)
	}
	return ""
}

// isInterfaceMethod reports whether fn is declared by an interface, so a
// call of it is dynamically dispatched.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// --- body walking ---

type graphWalker struct {
	g    *Graph
	node *FuncNode
	info *types.Info
}

// walk resolves every call, closure literal and method value under root into
// edges of w.node.
func (w *graphWalker) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			w.call(v.Call, EdgeGo)
			return false
		case *ast.DeferStmt:
			w.call(v.Call, EdgeDefer)
			return false
		case *ast.CallExpr:
			w.call(v, EdgeCall)
			return false
		case *ast.FuncLit:
			w.funcLit(v, EdgeRef, nil)
			return false
		case *ast.SelectorExpr:
			w.methodValue(v)
		}
		return true
	})
}

// methodValue records an EdgeRef when a concrete method is referenced as a
// value outside a call position (`state.NewSource(s.StateSnapshot)`).
func (w *graphWalker) methodValue(sel *ast.SelectorExpr) {
	s, ok := w.info.Selections[sel]
	if !ok || s.Kind() == types.FieldVal {
		return
	}
	if fn := s.Obj().(*types.Func); !isInterfaceMethod(fn) {
		if n := w.g.nodeOf(fn); n != nil {
			w.addEdge(Edge{Kind: EdgeRef, Callee: n, Target: n.Name, Pos: sel.Pos()})
		}
	}
}

// funcLit creates the literal's node and an edge of the given kind, and
// walks the literal's body as that node.
func (w *graphWalker) funcLit(lit *ast.FuncLit, kind EdgeKind, call *ast.CallExpr) {
	child := &FuncNode{
		Pkg:    w.node.Pkg,
		File:   w.node.File,
		Name:   w.node.Name + ".func",
		Lit:    lit,
		Parent: w.node,
	}
	w.g.Nodes = append(w.g.Nodes, child)
	w.addEdge(Edge{Kind: kind, Callee: child, Target: child.Name, Site: call, Pos: lit.Pos()})
	cw := &graphWalker{g: w.g, node: child, info: w.info}
	cw.walk(lit.Body)
}

func (w *graphWalker) addEdge(e Edge) {
	w.node.Edges = append(w.node.Edges, e)
	if e.Site != nil {
		w.g.edgesBySite[e.Site] = append(w.g.edgesBySite[e.Site], e)
	}
}

// call resolves one call expression into edges and walks its operands.
func (w *graphWalker) call(call *ast.CallExpr, kind EdgeKind) {
	for _, arg := range call.Args {
		w.walk(arg)
	}
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		// Immediately-invoked (or deferred/spawned) literal.
		w.funcLit(lit, kind, call)
		return
	}
	if tv := w.info.Types[fun]; tv.IsType() || tv.IsBuiltin() {
		return // a conversion or a builtin: no edge
	}
	var fn *types.Func
	var recv types.Type // the operand's type, for method calls
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		w.walk(f.X)
		if s, ok := w.info.Selections[f]; ok {
			fn, _ = s.Obj().(*types.Func) // nil for a func-typed field
			recv = s.Recv()
		} else {
			fn, _ = w.info.Uses[f.Sel].(*types.Func) // package-qualified
		}
	case *ast.Ident:
		fn, _ = w.info.Uses[f].(*types.Func)
	default:
		w.walk(fun)
	}
	site := Edge{Kind: kind, Site: call, Pos: call.Pos()}
	switch {
	case fn == nil:
		// A function value: its creation was tracked as EdgeRef.
		site.Target = exprString(fun) + " (dynamic)"
		w.addEdge(site)
	case isInterfaceMethod(fn):
		cands := w.g.implementers(recv, fn)
		if len(cands) == 0 {
			site.Target = fn.FullName()
			w.addEdge(site)
		}
		for _, n := range cands {
			e := site
			e.Callee, e.Target, e.OverApprox = n, n.Name, true
			w.addEdge(e)
		}
	default:
		if n := w.g.nodeOf(fn); n != nil {
			site.Callee, site.Target = n, n.Name
		} else {
			site.Target = fn.FullName()
		}
		w.addEdge(site)
	}
}

// implementers returns the in-module methods an interface call of method on
// an operand of type recv may dispatch to: method as found on every named
// type T in the module where T or *T implements recv's interface.
func (g *Graph) implementers(recv types.Type, method *types.Func) []*FuncNode {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := dispatchKey{iface, method}
	if cands, ok := g.dispatch[key]; ok {
		return cands
	}
	var cands []*FuncNode
	for _, t := range g.named {
		var impl types.Type = t
		if !types.Implements(impl, iface) {
			if impl = types.NewPointer(t); !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, false, method.Pkg(), method.Name())
		if fn, ok := obj.(*types.Func); ok {
			if n := g.nodeOf(fn); n != nil && !slices.Contains(cands, n) {
				cands = append(cands, n)
			}
		}
	}
	g.dispatch[key] = cands
	return cands
}

// --- reachability ---

// ReachOpts selects which edge kinds a traversal follows.
type ReachOpts struct {
	Call, Go, Defer, Ref bool
	// OverApprox includes interface-dispatch edges.
	OverApprox bool
}

// Reachable computes the forward closure from roots. The returned parents
// map records one spanning-tree predecessor edge per reached node, for path
// reconstruction; roots map to a zero Edge.
func (g *Graph) Reachable(roots []*FuncNode, opts ReachOpts) map[*FuncNode]Edge {
	parents := make(map[*FuncNode]Edge)
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := parents[r]; !ok {
			parents[r] = Edge{}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if e.Callee == nil {
				continue
			}
			if e.OverApprox && !opts.OverApprox {
				continue
			}
			switch e.Kind {
			case EdgeCall:
				if !opts.Call {
					continue
				}
			case EdgeGo:
				if !opts.Go {
					continue
				}
			case EdgeDefer:
				if !opts.Defer {
					continue
				}
			case EdgeRef:
				if !opts.Ref {
					continue
				}
			}
			if _, ok := parents[e.Callee]; ok {
				continue
			}
			parents[e.Callee] = Edge{Kind: e.Kind, Callee: n, Target: n.Name, Pos: e.Pos}
			queue = append(queue, e.Callee)
		}
	}
	return parents
}

// CallPath renders "root → a → b → n" from a Reachable parents map.
func CallPath(parents map[*FuncNode]Edge, n *FuncNode) string {
	var names []string
	for hop := 0; n != nil && hop < 32; hop++ {
		names = append(names, n.Name)
		p := parents[n]
		n = p.Callee
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// Dump writes the graph as sorted "caller -> callee [kind]" lines, for
// leasevet -graph debugging.
func (g *Graph) Dump(out io.Writer) {
	var lines []string
	for _, n := range g.Nodes {
		for _, e := range n.Edges {
			target := e.Target
			if e.Callee != nil {
				target = e.Callee.String()
			}
			suffix := ""
			if e.OverApprox {
				suffix = " (over-approx)"
			}
			lines = append(lines, fmt.Sprintf("%s -> %s [%s]%s", n.String(), target, e.Kind, suffix))
		}
	}
	sort.Strings(lines)
	prev := ""
	for _, l := range lines {
		if l == prev {
			continue
		}
		prev = l
		fmt.Fprintln(out, l)
	}
}
