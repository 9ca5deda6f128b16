package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// LockOrder enforces the PR 3 shard-locking order in the server and proxy:
//
//  1. Multi-shard operations must take shard mutexes in sorted volume
//     order. The only sanctioned way to do that is ranging over the
//     allShards() helper (which sorts); locking each element's `mu` while
//     ranging over anything else (a map, an ad-hoc slice) acquires shard
//     mutexes in nondeterministic order and can deadlock against Recover.
//  2. Holding two distinct `mu` fields at once outside that helper is the
//     same hazard spelled differently.
//
// Blocking while a shard mutex is held is lockflow's rule.
//
// The analysis is a linear, syntactic scan per function: it tracks Lock and
// Unlock calls on mutex-named fields (`mu`, `fooMu`) through nested blocks,
// without modeling control flow joins. That is precise enough for the
// stack's straight-line lock sections and errs toward silence elsewhere.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforces sorted-order multi-shard locking: allShards() iteration, never two shard mutexes at once",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	for _, f := range pass.Files {
		for _, fn := range funcBodies(f) {
			lo := &lockWalker{pass: pass, allShardsVars: allShardsAssignees(fn.body)}
			lo.stmts(fn.body.List, map[string]bool{})
		}
	}
}

// allShardsAssignees collects variables assigned from an allShards() call
// within the body ("shards := s.allShards()"), the sanctioned source for
// multi-shard iteration.
func allShardsAssignees(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && lastSelector(call.Fun) == "allShards" {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

type lockWalker struct {
	pass          *Pass
	allShardsVars map[string]bool
}

// isMutexChain reports whether e names a mutex by this project's
// conventions: a field or variable named `mu` or suffixed `Mu`.
func isMutexChain(e ast.Expr) (name string, shard bool, ok bool) {
	last := lastSelector(e)
	if last == "" {
		return "", false, false
	}
	if last == "mu" {
		return exprString(e), true, true // shard/table-style mutex
	}
	if strings.HasSuffix(last, "Mu") || strings.HasSuffix(last, "mu") {
		return exprString(e), false, true // named auxiliary mutex
	}
	return "", false, false
}

// lockCall decodes a statement of the form X.Lock()/X.Unlock() (and the
// RWMutex variants) where X is mutex-named.
func lockCall(stmt ast.Stmt) (expr string, shard, lock, unlock bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		unlock = true
	default:
		return
	}
	expr, shard, ok = isMutexChain(sel.X)
	if !ok {
		return "", false, false, false
	}
	return expr, shard, lock, unlock
}

// stmts scans a statement list in order, threading the set of held mutexes
// (expr string -> is-shard-mutex) through nested blocks.
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, stmt := range list {
		w.stmt(stmt, held)
	}
}

func (w *lockWalker) stmt(stmt ast.Stmt, held map[string]bool) {
	if expr, shard, lock, unlock := lockCall(stmt); lock || unlock {
		if unlock {
			delete(held, expr)
			return
		}
		held[expr] = shard
		if shard {
			var shards []string
			for e, s := range held {
				if s {
					shards = append(shards, e)
				}
			}
			if len(shards) > 1 {
				sort.Strings(shards)
				w.pass.Reportf(stmt.Pos(),
					"holds multiple shard mutexes at once (%s); multi-shard operations must lock via allShards() in sorted volume order",
					strings.Join(shards, ", "))
			}
		}
		return
	}

	switch s := stmt.(type) {
	case *ast.DeferStmt:
		// defer X.Unlock() keeps X held to the end of the function, which
		// is what the linear scan already assumes; nothing to do.
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Body, held)
		if s.Else != nil {
			w.stmt(s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Body, held)
	case *ast.RangeStmt:
		w.rangeStmt(s, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, held)
			}
		}
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the spawner's locks; its
		// body (a FuncLit) is analyzed as its own function by funcBodies.
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

// rangeStmt checks the multi-shard iteration rule: a range body that locks
// `<value>.mu` must be ranging over allShards() (directly or via a variable
// assigned from it).
func (w *lockWalker) rangeStmt(s *ast.RangeStmt, held map[string]bool) {
	valueName := ""
	if id, ok := s.Value.(*ast.Ident); ok {
		valueName = id.Name
	}
	if valueName != "" && locksValueMutex(s.Body, valueName) && !w.sanctionedShardSource(s.X) {
		w.pass.Reportf(s.Pos(),
			"locks each element's shard mutex while ranging over %s; iterate allShards() so shard mutexes are taken in sorted volume order",
			exprString(s.X))
	}
	w.stmt(s.Body, held)
}

// sanctionedShardSource reports whether the range operand is an allShards()
// call or a variable holding its result.
func (w *lockWalker) sanctionedShardSource(x ast.Expr) bool {
	switch v := x.(type) {
	case *ast.CallExpr:
		return lastSelector(v.Fun) == "allShards"
	case *ast.Ident:
		return w.allShardsVars[v.Name]
	}
	return false
}

// locksValueMutex reports whether body contains <value>.mu.Lock().
func locksValueMutex(body *ast.BlockStmt, value string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "mu" {
			return true
		}
		if base, ok := inner.X.(*ast.Ident); ok && base.Name == value {
			found = true
		}
		return true
	})
	return found
}

// heldShardMutex returns a held shard/table mutex expression, or "".
func heldShardMutex(held map[string]bool) string {
	var names []string
	for e, shard := range held {
		if shard {
			names = append(names, e)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[0]
}
