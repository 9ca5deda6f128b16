package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapshotCopy makes PR 9's share-no-memory discipline a compile-time fact:
// a snapshot root — core.Table.Snapshot, any StateSnapshot method, or a
// //lint:snapshotroot-annotated function — must not return memory that
// aliases the live structures it was called on. The analysis taints the
// root's receiver and reference-kinded parameters, propagates taint through
// assignments, field selections, indexing, range loops, and (via memoized
// per-function summaries) through calls to other in-module functions, and
// reports wherever a tainted value reaches a return statement.
//
// Taint only flows through "refish" types — types that can alias memory:
// pointers, slices, maps, chans, funcs, and structs (transitively)
// containing one. Selecting a basic field out of a tainted struct
// (`l.granted`, a time.Time, an ObjectID) copies a value and drops the
// taint; that is exactly the deep-copy idiom the discipline requires, so
// the analyzer is silent on correct code by construction.
//
// Named types from outside the module are opaque (time.Time holds a
// *Location, yet is value-copied everywhere here) unless a type argument is
// refish: an atomic.Pointer[map[VolumeID]*shard] field is live state, and a
// method called on a tainted receiver of an external type (its Load) returns
// that taint. Known blind spots, documented in DESIGN.md §13: values boxed in
// interfaces (sync.Map entries) come back clean, and closure captures are not
// tracked.
var SnapshotCopy = &Analyzer{
	Name:     "snapshotcopy",
	Doc:      "snapshot roots must not return references to live maps/slices (share-no-memory)",
	RunGraph: runSnapshotCopy,
}

// isSnapshotRoot identifies the functions whose return values must share no
// memory with live state.
func isSnapshotRoot(n *FuncNode) bool {
	if n.SnapshotRoot {
		return true
	}
	if n.Decl == nil {
		return false
	}
	name := n.Decl.Name.Name
	if name == "StateSnapshot" {
		return true
	}
	return name == "Snapshot" && n.RecvType == "Table"
}

func runSnapshotCopy(p *GraphPass) {
	sc := &snapCopy{
		g:          p.Graph,
		summaries:  make(map[*FuncNode]*snapSummary),
		visiting:   make(map[*FuncNode]bool),
		refishMemo: make(map[*types.Named]bool),
	}
	for _, n := range sc.g.Nodes {
		if !isSnapshotRoot(n) {
			continue
		}
		sum := sc.summarize(n)
		for idx, leak := range sum.leaks {
			p.ReportNodef(n, leak.pos,
				"snapshot root %s returns memory aliasing live %s (%s); deep-copy it — snapshots must share no memory with live state",
				n.Name, paramName(n, idx), leak.src)
		}
	}
}

type snapCopy struct {
	g          *Graph
	summaries  map[*FuncNode]*snapSummary
	visiting   map[*FuncNode]bool
	refishMemo map[*types.Named]bool
}

// taintMask bit i set = may alias parameter i (0 = receiver for methods).
type taintMask uint64

type snapLeak struct {
	pos token.Pos
	src string
}

// snapSummary records which parameters a function's return values may
// alias, with the first leak site for each.
type snapSummary struct {
	leaks map[int]*snapLeak
}

// params lists a function's receiver (for methods) and parameters, in taint
// bit order.
func params(n *FuncNode) []*types.Var {
	sig := n.Signature()
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// paramName renders the leaked parameter for diagnostics.
func paramName(n *FuncNode, idx int) string {
	v := params(n)[idx]
	kind := "parameter "
	if idx == 0 && n.Signature().Recv() != nil {
		kind = "receiver "
	}
	if v.Name() == "" {
		return kind + "(unnamed)"
	}
	return kind + v.Name()
}

// refish reports whether a value of type t can alias memory.
func (sc *snapCopy) refish(t types.Type) bool {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if v, ok := sc.refishMemo[t]; ok {
			return v
		}
		sc.refishMemo[t] = false // cycle guard: recursive types resolve below
		res := false
		if sc.g.inModule(t.Obj().Pkg()) {
			res = sc.refish(t.Underlying())
		} else {
			for i := 0; i < t.TypeArgs().Len() && !res; i++ {
				res = sc.refish(t.TypeArgs().At(i))
			}
		}
		sc.refishMemo[t] = res
		return res
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Array:
		return sc.refish(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if sc.refish(t.Field(i).Type()) {
				return true
			}
		}
	case *types.Tuple: // a multi-value call: taint goes to its first value
		for i := 0; i < t.Len(); i++ {
			if sc.refish(t.At(i).Type()) {
				return true
			}
		}
	}
	// Basic and interface types: err toward silence.
	return false
}

// summarize computes (and memoizes) a function's leak summary.
func (sc *snapCopy) summarize(fn *FuncNode) *snapSummary {
	if s, ok := sc.summaries[fn]; ok {
		return s
	}
	if sc.visiting[fn] {
		return &snapSummary{} // cycle: assume clean while resolving
	}
	sc.visiting[fn] = true
	tw := &taintWalker{
		sc:   sc,
		info: fn.Pkg.Info,
		node: fn,
		env:  map[types.Object]taintVal{},
		sum:  &snapSummary{leaks: map[int]*snapLeak{}},
	}
	tw.seed()
	if body := fn.Body(); body != nil {
		// Two passes pick up loop-carried taint (x built in iteration n,
		// returned after the loop).
		tw.stmts(body.List)
		tw.stmts(body.List)
	}
	delete(sc.visiting, fn)
	sc.summaries[fn] = tw.sum
	return tw.sum
}

// --- the taint walker ---

type taintVal struct {
	m   taintMask
	src string
}

type taintWalker struct {
	sc      *snapCopy
	info    *types.Info
	node    *FuncNode
	env     map[types.Object]taintVal
	results *types.Tuple
	sum     *snapSummary
}

// seed taints the refish receiver and parameters.
func (tw *taintWalker) seed() {
	for idx, v := range params(tw.node) {
		if idx < 64 {
			tw.bind(v, taintVal{m: 1 << idx, src: v.Name()})
		}
	}
	tw.results = tw.node.Signature().Results()
	for i := 0; i < tw.results.Len(); i++ {
		tw.env[tw.results.At(i)] = taintVal{} // named results can be built up by stores
	}
}

// bind records val for obj, dropping the taint when obj's type cannot alias.
func (tw *taintWalker) bind(obj types.Object, val taintVal) {
	if obj == nil {
		return
	}
	if !tw.sc.refish(obj.Type()) {
		val = taintVal{}
	}
	tw.env[obj] = val
}

// bindExpr binds an identifier on the left of an assignment or range.
func (tw *taintWalker) bindExpr(e ast.Expr, val taintVal) {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		tw.bind(tw.info.ObjectOf(id), val)
	}
}

func (tw *taintWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		tw.stmt(s)
	}
}

func (tw *taintWalker) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case nil:
	case *ast.AssignStmt:
		tw.assign(v)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var val taintVal
					if i < len(vs.Values) {
						val = tw.exprTaint(vs.Values[i])
					}
					tw.bindExpr(name, val)
				}
			}
		}
	case *ast.ReturnStmt:
		if len(v.Results) == 0 {
			for i := 0; i < tw.results.Len(); i++ {
				if val := tw.env[tw.results.At(i)]; val.m != 0 {
					tw.leak(val.m, v.Pos(), val.src)
				}
			}
			return
		}
		for _, r := range v.Results {
			if val := tw.exprTaint(r); val.m != 0 {
				tw.leak(val.m, v.Pos(), val.src)
			}
		}
	case *ast.BlockStmt:
		tw.stmts(v.List)
	case *ast.IfStmt:
		tw.stmt(v.Init)
		tw.stmt(v.Body)
		tw.stmt(v.Else)
	case *ast.ForStmt:
		tw.stmt(v.Init)
		tw.stmt(v.Post)
		tw.stmt(v.Body)
	case *ast.RangeStmt:
		cont := tw.exprTaint(v.X)
		if v.Key != nil {
			tw.bindExpr(v.Key, cont)
		}
		if v.Value != nil {
			tw.bindExpr(v.Value, cont)
		}
		tw.stmt(v.Body)
	case *ast.SwitchStmt:
		tw.stmt(v.Init)
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				tw.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		tw.stmt(v.Init)
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				tw.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				tw.stmt(cc.Comm)
				tw.stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		tw.stmt(v.Stmt)
	}
}

func (tw *taintWalker) leak(m taintMask, pos token.Pos, src string) {
	for i := 0; i < 64; i++ {
		if m&(1<<i) == 0 {
			continue
		}
		if _, dup := tw.sum.leaks[i]; dup {
			continue
		}
		if src == "" {
			src = "aliased value"
		}
		tw.sum.leaks[i] = &snapLeak{pos: pos, src: "via " + src}
	}
}

func (tw *taintWalker) assign(as *ast.AssignStmt) {
	var vals []taintVal
	if len(as.Lhs) == len(as.Rhs) {
		for _, r := range as.Rhs {
			vals = append(vals, tw.exprTaint(r))
		}
	} else if len(as.Rhs) == 1 {
		// Multi-value form: the first value carries the taint; comma-ok
		// forms give (value, clean bool).
		vals = make([]taintVal, len(as.Lhs))
		vals[0] = tw.exprTaint(as.Rhs[0])
	}
	for i, lhs := range as.Lhs {
		if i >= len(vals) {
			break
		}
		if _, ok := lhs.(*ast.Ident); ok {
			tw.bindExpr(lhs, vals[i])
			continue
		}
		// Store into a field/element: taint the local variable the chain is
		// rooted at (building a result: out.Objects = t.live taints out).
		// Stores rooted at a parameter mutate live state — not a
		// snapshot-leak, ignored here.
		if vals[i].m != 0 {
			tw.taintRoot(lhs, vals[i])
		}
	}
}

// taintRoot adds val's taint to the variable an lvalue chain is rooted at.
func (tw *taintWalker) taintRoot(lhs ast.Expr, val taintVal) {
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := tw.info.ObjectOf(root)
	if cur, ok := tw.env[obj]; ok {
		cur.m |= val.m
		if cur.src == "" || cur.src == root.Name {
			cur.src = val.src
		}
		tw.env[obj] = cur
	}
}

// rootIdent finds the base identifier of an lvalue chain (out.Objects[i] ->
// out).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// exprTaint computes an expression's taint; a value whose type cannot alias
// memory is clean whatever it was computed from.
func (tw *taintWalker) exprTaint(e ast.Expr) taintVal {
	if t := tw.info.TypeOf(e); t == nil || !tw.sc.refish(t) {
		return taintVal{}
	}
	switch v := e.(type) {
	case *ast.Ident:
		return tw.env[tw.info.ObjectOf(v)]
	case *ast.SelectorExpr:
		if s, ok := tw.info.Selections[v]; ok && s.Kind() == types.FieldVal {
			bv := tw.exprTaint(v.X)
			return taintVal{m: bv.m, src: bv.src + "." + v.Sel.Name}
		}
		return taintVal{} // a package-level reference or a method value
	case *ast.CallExpr:
		return tw.callTaint(v)
	case *ast.UnaryExpr, *ast.StarExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.TypeAssertExpr, *ast.ParenExpr:
		// &x, <-ch, *p, m[k], s[i:j] (a reslice aliases its operand), x.(T).
		return tw.exprTaint(operand(v))
	case *ast.CompositeLit:
		var out taintVal
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = union(out, tw.exprTaint(el))
		}
		return out
	}
	// Binary expressions, literals, and closures (captures untracked).
	return taintVal{}
}

// operand returns the expression a unary-shaped expression reads through.
func operand(e ast.Expr) ast.Expr {
	switch v := e.(type) {
	case *ast.UnaryExpr:
		return v.X
	case *ast.StarExpr:
		return v.X
	case *ast.IndexExpr:
		return v.X
	case *ast.SliceExpr:
		return v.X
	case *ast.TypeAssertExpr:
		return v.X
	case *ast.ParenExpr:
		return v.X
	}
	return nil
}

// union merges b's taint into a, keeping a's source description if it has
// one.
func union(a, b taintVal) taintVal {
	if b.m != 0 {
		a.m |= b.m
		if a.src == "" {
			a.src = b.src
		}
	}
	return a
}

// callTaint propagates taint through builtins, conversions, resolved
// in-module call summaries, and methods of external types.
func (tw *taintWalker) callTaint(call *ast.CallExpr) taintVal {
	fun := ast.Unparen(call.Fun)
	tv := tw.info.Types[fun]
	switch {
	case tv.IsBuiltin():
		switch exprString(fun) {
		case "append":
			var out taintVal
			for _, a := range call.Args {
				out = union(out, tw.exprTaint(a))
			}
			return out
		case "copy":
			// copy(dst, src) aliases element memory when elements are refish.
			if len(call.Args) == 2 {
				if src := tw.exprTaint(call.Args[1]); src.m != 0 {
					if dst, ok := tw.info.TypeOf(call.Args[0]).Underlying().(*types.Slice); ok && tw.sc.refish(dst.Elem()) {
						tw.taintRoot(call.Args[0], src)
					}
				}
			}
		}
		return taintVal{}
	case tv.IsType():
		// A conversion keeps aliasing for refish targets.
		if len(call.Args) == 1 {
			return tw.exprTaint(call.Args[0])
		}
		return taintVal{}
	}

	// Resolved in-module callees: apply leak summaries.
	for _, edge := range tw.sc.g.EdgesAt(call) {
		if edge.Callee == nil || edge.OverApprox || edge.Kind != EdgeCall {
			continue
		}
		callee := edge.Callee
		// Map callee parameter indices to argument taints.
		argTaint := func(idx int) taintVal {
			if callee.Signature().Recv() != nil {
				if idx == 0 {
					if sel, ok := fun.(*ast.SelectorExpr); ok {
						return tw.exprTaint(sel.X)
					}
					return taintVal{}
				}
				idx--
			}
			if idx < len(call.Args) {
				return tw.exprTaint(call.Args[idx])
			}
			return taintVal{}
		}
		var out taintVal
		for idx := range tw.sc.summarize(callee).leaks {
			if av := argTaint(idx); av.m != 0 {
				out.m |= av.m
				if out.src == "" {
					out.src = "result of " + callee.Name + " aliasing " + av.src
				}
			}
		}
		return out
	}

	// A method of a type outside the module returns what its receiver holds
	// (atomic.Pointer.Load hands out the live pointer).
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := tw.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if fn := s.Obj().(*types.Func); !isInterfaceMethod(fn) && !tw.sc.g.inModule(fn.Pkg()) {
				recv := tw.exprTaint(sel.X)
				return taintVal{m: recv.m, src: "result of " + recv.src + "." + fn.Name()}
			}
		}
	}
	// Unresolved or external function call: clean result (documented blind
	// spot).
	return taintVal{}
}
