package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// LockFlow enforces the shard-lock half of the write path's discipline:
// enqueue under the lock, block outside it. No blocking operation may run
// while a shard/table mutex is held, whether it is written in the locked
// section itself or reached through any call depth: every resolved call
// made under the lock is followed into its callees (and their callees).
// Blocking operations are:
//
//   - channel sends and selects without a default clause
//   - condition-variable / WaitGroup Wait calls
//   - transport sends/receives (the blockingCallNames set, when the callee
//     body is outside the module or unresolved)
//   - time.Sleep
//   - acquisition of a second shard mutex (lock-order deadlock risk; the
//     locked section's own Lock statements are lockorder's multiple-shard
//     rule)
//
// Deferred calls inside a callee count (they run before the callee returns,
// still under the caller's lock); goroutines spawned by a callee do not
// (they do not inherit the lock). Findings are reported at the blocking
// operation or call site inside the locked section, with the call chain to
// the blocking operation.
var LockFlow = &Analyzer{
	Name:     "lockflow",
	Doc:      "no blocking operation while a shard mutex is held, directly or through any call depth",
	RunGraph: runLockFlow,
}

// blockingCallNames are the transport-facing calls that can block on the
// network (or on a slow peer) and must therefore never run under a shard or
// table mutex. The lowercase names are this project's send wrappers.
var blockingCallNames = map[string]bool{
	"Send":           true,
	"Recv":           true,
	"send":           true,
	"sendErr":        true,
	"sendInvalidate": true,
}

// blocker describes why (and where) a function may block.
type blocker struct {
	what  string
	pos   token.Pos
	node  *FuncNode
	chain []string // call chain from the summarized function to the blocker
}

type lockFlow struct {
	p *GraphPass
	// summaries memoizes per-function blocking info; a nil entry means
	// "does not block". visiting breaks recursion cycles (a cycle member is
	// assumed non-blocking unless something off-cycle blocks).
	summaries map[*FuncNode]*blocker
	visiting  map[*FuncNode]bool
}

func runLockFlow(p *GraphPass) {
	lf := &lockFlow{
		p:         p,
		summaries: make(map[*FuncNode]*blocker),
		visiting:  make(map[*FuncNode]bool),
	}
	for _, n := range p.Graph.Nodes {
		if n.Body() != nil {
			lf.walkHolder(n)
		}
	}
}

// --- caller side: find calls made while a shard mutex is held ---

// walkHolder scans one function linearly, tracking held shard mutexes the
// same way lockorder does, and summarizing every call made under one.
func (lf *lockFlow) walkHolder(n *FuncNode) {
	lf.holderStmts(n, n.Body().List, map[string]bool{})
}

func (lf *lockFlow) holderStmts(n *FuncNode, list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		lf.holderStmt(n, s, held)
	}
}

func (lf *lockFlow) holderStmt(n *FuncNode, stmt ast.Stmt, held map[string]bool) {
	if expr, shard, lock, unlock := lockCall(stmt); lock || unlock {
		if unlock {
			delete(held, expr)
		} else if shard {
			held[expr] = true
		}
		return
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		lf.holderStmts(n, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			lf.holderStmt(n, s.Init, held)
		}
		lf.checkCalls(n, s.Cond, held)
		lf.holderStmt(n, s.Body, held)
		if s.Else != nil {
			lf.holderStmt(n, s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lf.holderStmt(n, s.Init, held)
		}
		lf.checkCalls(n, s.Cond, held)
		lf.holderStmt(n, s.Body, held)
	case *ast.RangeStmt:
		lf.checkCalls(n, s.X, held)
		lf.holderStmt(n, s.Body, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lf.holderStmt(n, s.Init, held)
		}
		lf.checkCalls(n, s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lf.holderStmts(n, cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lf.holderStmts(n, cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		if !hasDefault(s) {
			lf.checkCalls(n, s, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lf.holderStmts(n, cc.Body, held)
			}
		}
	case *ast.GoStmt:
		// The goroutine does not inherit the spawner's locks.
	case *ast.DeferStmt:
		// defer X.Unlock() keeps X held to function end (linear-scan
		// assumption, same as lockorder); other defers run at exit, possibly
		// after unlock — skip, err toward silence.
	case *ast.LabeledStmt:
		lf.holderStmt(n, s.Stmt, held)
	default:
		lf.checkCalls(n, stmt, held)
	}
}

// checkCalls reports, while a shard mutex is held, every blocking operation
// directly inside node (a stmt or expr) and every resolved call there that
// reaches one.
func (lf *lockFlow) checkCalls(n *FuncNode, node ast.Node, held map[string]bool) {
	if node == nil {
		return
	}
	mu := heldShardMutex(held)
	if mu == "" {
		return
	}
	ast.Inspect(node, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false // its own node; analyzed with its own lock context
		}
		if what := lf.directBlocker(n, nd); what != "" {
			lf.p.ReportNodef(n, nd.Pos(),
				"blocking %s while %s is held; enqueue under the lock, run the blocking step outside it", what, mu)
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, e := range lf.p.Graph.EdgesAt(call) {
			if e.Callee == nil || e.Kind != EdgeCall {
				continue
			}
			b := lf.summary(e.Callee)
			if b == nil {
				continue
			}
			chain := strings.Join(append([]string{e.Callee.Name}, b.chain...), " → ")
			lf.p.ReportNodef(n, call.Pos(),
				"call to %s while %s is held reaches blocking %s at %s (%s); enqueue under the lock, run the blocking step outside it",
				e.Callee.Name, mu, b.what, b.node.Position(b.pos), chain)
			break // one finding per call site
		}
		return true
	})
}

// directBlocker describes nd if it is itself a blocking operation in fn, or
// returns "". A select with a default clause never blocks (its bodies may).
func (lf *lockFlow) directBlocker(fn *FuncNode, nd ast.Node) string {
	switch v := nd.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.SelectStmt:
		if !hasDefault(v) {
			return "select without default"
		}
	case *ast.CallExpr:
		resolved := false
		for _, e := range lf.p.Graph.EdgesAt(v) {
			if e.Callee != nil {
				resolved = true
			} else if e.Target == "time.Sleep" {
				return "time.Sleep"
			}
		}
		sel, ok := v.Fun.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		switch {
		case sel.Sel.Name == "Wait":
			return "Wait (condvar/WaitGroup)"
		case sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock":
			// A second shard-mutex acquisition only counts when the locked
			// `mu` belongs to the shard discipline's packages (lockorder
			// scope): every leaf component (clock, obs, ...) also names its
			// private mutex `mu`, and locking one of those is not a
			// lock-order hazard.
			if name, shard, ok := isMutexChain(sel.X); ok && shard && Scoped("lockorder", fn.Pkg.Path) {
				return "second shard-mutex acquisition (" + name + ")"
			}
		case !resolved && blockingCallNames[sel.Sel.Name]:
			return "transport call " + exprString(sel.X) + "." + sel.Sel.Name
		}
	}
	return ""
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// --- callee side: memoized blocking summaries ---

// summary reports whether fn (or anything it calls) may block, or nil.
func (lf *lockFlow) summary(fn *FuncNode) *blocker {
	if b, ok := lf.summaries[fn]; ok {
		return b
	}
	if lf.visiting[fn] {
		return nil // cycle member: assume non-blocking unless proven off-cycle
	}
	lf.visiting[fn] = true
	b := lf.findBlocker(fn)
	delete(lf.visiting, fn)
	lf.summaries[fn] = b
	return b
}

func (lf *lockFlow) findBlocker(fn *FuncNode) *blocker {
	var found *blocker
	var walk func(ast.Node)
	walk = func(node ast.Node) {
		ast.Inspect(node, func(nd ast.Node) bool {
			if found != nil {
				return false
			}
			if what := lf.directBlocker(fn, nd); what != "" {
				found = &blocker{what: what, pos: nd.Pos(), node: fn}
				return false
			}
			switch v := nd.(type) {
			case *ast.FuncLit:
				return false // separate node; reached only if invoked (via edges)
			case *ast.GoStmt:
				return false // spawned work does not block the spawner
			case *ast.SelectStmt:
				// Non-blocking select: its bodies may still block.
				for _, c := range v.Body.List {
					for _, s := range c.(*ast.CommClause).Body {
						walk(s)
					}
				}
				return false
			case *ast.CallExpr:
				for _, e := range lf.p.Graph.EdgesAt(v) {
					if e.Callee == nil || (e.Kind != EdgeCall && e.Kind != EdgeDefer) {
						continue
					}
					if b := lf.summary(e.Callee); b != nil {
						found = &blocker{
							what:  b.what,
							pos:   b.pos,
							node:  b.node,
							chain: append([]string{e.Callee.Name}, b.chain...),
						}
						return false
					}
				}
			}
			return true
		})
	}
	if body := fn.Body(); body != nil {
		walk(body)
	}
	return found
}
