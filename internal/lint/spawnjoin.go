package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// SpawnJoin flags goroutines that can loop forever on blocking channel
// operations without ever consulting a shutdown signal. Every long-lived
// goroutine in the live stack (accept loops, sweepers, invalidation
// flushers, read pumps) must observe its component's done/closed channel
// (or a context's Done()), or Close hangs waiting for it — the
// leaked-goroutine-on-shutdown class of bug that only shows up as a test
// timeout.
//
// The check follows the call graph: for every `go` statement, if an infinite
// `for {}` loop doing blocking channel operations is reachable anywhere in
// the spawned goroutine's call closure, a shutdown reference (a name like
// done/closed/gone/stop/quit/shutdown, or a received `<-x.Done()`) must be
// reachable in that same closure. So `go s.run()` where run() calls pump()
// and pump loops is caught, and conversely a loop whose shutdown select
// lives in a helper is passed. Goroutines whose loops exit by other means
// (I/O errors from a closed connection, bounded iteration) have no
// unguarded infinite blocking loop and pass untouched.
//
// The two searches are deliberately asymmetric, per the suite's soundness
// stance: the infinite-loop search follows only precisely-resolved call
// edges (an over-approximated edge must not pin a loop on the wrong
// function), while the shutdown search follows every edge including
// interface dispatch and closure references (any plausible path to a
// shutdown signal errs toward silence). Goroutines whose target cannot be
// resolved at all are skipped.
var SpawnJoin = &Analyzer{
	Name:     "spawnjoin",
	Doc:      "every go statement's goroutine must have a reachable shutdown edge (done channel, ctx, or Close-owned lifecycle)",
	RunGraph: runSpawnJoin,
}

func runSpawnJoin(p *GraphPass) {
	g := p.Graph
	for _, n := range g.Nodes {
		for _, e := range n.Edges {
			if e.Kind != EdgeGo || e.Callee == nil {
				continue
			}
			spawned := e.Callee

			// Where can this goroutine wedge? Only trust precise edges.
			loopClosure := g.Reachable([]*FuncNode{spawned}, ReachOpts{Call: true})
			var loopNode *FuncNode
			for cand := range loopClosure {
				if cand.Body() != nil && hasUnguardedBlockingLoop(cand.Body()) {
					if loopNode == nil || cand.String() < loopNode.String() {
						loopNode = cand // deterministic pick for stable messages
					}
				}
			}
			if loopNode == nil {
				continue
			}

			// Can it see a shutdown signal? Any plausible path counts.
			joinClosure := g.Reachable([]*FuncNode{spawned},
				ReachOpts{Call: true, Defer: true, Ref: true, OverApprox: true})
			hasJoin := false
			for cand := range joinClosure {
				if cand.Body() != nil && referencesShutdown(cand.Body()) {
					hasJoin = true
					break
				}
			}
			if hasJoin {
				continue
			}
			p.ReportNodef(n, e.Pos,
				"goroutine %s loops forever on blocking channel operations (in %s) with no reachable shutdown edge (done/closed channel, <-ctx.Done(), or Close-owned lifecycle); Close will hang or leak it",
				spawned.Name, loopNode.Name)
		}
	}
}

// shutdownNames are the identifier names (case-insensitive) that count as
// shutdown signals in this codebase: Server.closed, Client.done, connCtx
// .gone, proxy.closed, stop channels.
var shutdownNames = map[string]bool{
	"done":     true,
	"closed":   true,
	"gone":     true,
	"stop":     true,
	"stopc":    true,
	"stopch":   true,
	"quit":     true,
	"shutdown": true,
}

// hasUnguardedBlockingLoop reports whether body contains an infinite `for {}`
// loop (not inside a nested function literal) that performs a blocking
// channel operation: a send, a receive, or a select without a default.
func hasUnguardedBlockingLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil || loop.Init != nil || loop.Post != nil {
			return true
		}
		if loopHasBlockingChanOp(loop.Body) {
			found = true
		}
		return true
	})
	return found
}

func loopHasBlockingChanOp(body *ast.BlockStmt) bool {
	blocking := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			blocking = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				blocking = true
			}
		case *ast.SelectStmt:
			if !hasDefault(v) {
				blocking = true
			}
			return false // don't double-count the comm clauses
		}
		return true
	})
	return blocking
}

// referencesShutdown reports whether the function body mentions a shutdown
// signal anywhere: an identifier/selector with a shutdown-ish name, or a
// received `<-x.Done()` (context.Context style). A bare wg.Done() call is
// deliberately NOT a shutdown observation — it announces this goroutine's
// own exit, it does not watch for anyone else's.
func referencesShutdown(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Ident:
			if isShutdownName(v.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if isShutdownName(v.Sel.Name) {
				found = true
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				if call, ok := v.X.(*ast.CallExpr); ok && lastSelector(call.Fun) == "Done" {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isShutdownName matches shutdown-channel naming case-insensitively, except
// the exact method name Done (wg.Done() announces exit, it doesn't watch
// for one; the watching form <-ctx.Done() is handled separately).
func isShutdownName(name string) bool {
	return name != "Done" && shutdownNames[strings.ToLower(name)]
}
