package lint

import (
	"go/ast"
	"go/types"
)

// forbiddenTimeFuncs are the package-time entry points that read or wait on
// the wall clock. Type and constant uses (time.Time, time.Second,
// time.ParseDuration) are fine — only sampling the clock diverges the live
// timeline from a simulated one.
var forbiddenTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// ClockCheck forbids direct wall-clock reads (time.Now, time.Sleep,
// time.After, time.Since, ...) in the lease stack. All lease mathematics
// must flow through the injected clock.Clock, or the paper's min(t, t_v)
// staleness bound only holds on the wall-clock timeline and cannot be
// exercised under simulated time. Legitimate wall-clock sites (benchmark
// timing, process-lifetime stamps) opt out with //lint:allow clockcheck.
var ClockCheck = &Analyzer{
	Name: "clockcheck",
	Doc:  "forbids time.Now/Sleep/After/Since in lease code; use the injected clock.Clock",
	Run:  runClockCheck,
}

func runClockCheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var id *ast.Ident
			switch v := n.(type) {
			case *ast.SelectorExpr:
				id = v.Sel
			case *ast.Ident:
				id = v // a dot import
			default:
				return true
			}
			// Calls and func values alike: `f(time.Now)` samples the wall
			// clock wherever f calls it.
			if fn, ok := pass.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
				fn.Type().(*types.Signature).Recv() == nil && forbiddenTimeFuncs[fn.Name()] {
				pass.Reportf(n.Pos(),
					"time.%s reads the wall clock; use the injected clock.Clock so simulated and live timelines agree",
					fn.Name())
				return false
			}
			return true
		})
	}
}
