package analysis

// goroleak polices goroutine lifecycles in the long-lived packages
// (serve, store, parallel, cache, metrics): every `go` statement must
// start a body with a registered stop path, i.e. something an owner can
// trigger to make the goroutine exit — a channel it receives from,
// selects on or ranges over (close the channel / cancel the context), a
// sync.WaitGroup it signals (Quiesce/Drain-style joins observe it), or
// a net/http accept loop (Server.Close/Shutdown terminates it). The
// check uses the intra-package call summaries, so `go p.worker()` is
// credited with worker's stop path even though the spawn site shows
// nothing.
//
// An orphan goroutine in these packages outlives its owner, holds
// references alive, and keeps running work (and grabbing locks) during
// shutdown — precisely the class of leak the dispatch pool must not
// introduce.

import (
	"go/ast"
)

// GoroLeak reports go statements whose body has no stop path.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "goroutines in long-lived packages must be stoppable: the body " +
		"(or an intra-package callee) must watch a channel/context, " +
		"signal a WaitGroup, or run an http accept loop",
	Match: matchConcPackages,
	Run:   runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	sum := summarize(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goStmtStops(sum, g) == 0 {
				pass.Reportf(g.Pos(), "goroutine has no stop path: its body neither watches a channel/context, signals a WaitGroup, nor runs a server accept loop, so nothing can shut it down")
			}
			return true
		})
	}
	return nil
}

// goStmtStops resolves the stop-path signals of one go statement's
// body.
func goStmtStops(sum *pkgSummary, g *ast.GoStmt) stopSet {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return sum.bodyStops(lit.Body)
	}
	fn := calleeFunc(sum.info, g.Call)
	if fn == nil {
		// A call through a function value: nothing knowable statically.
		// Treat as unstoppable — the fix is to wrap it in a literal that
		// threads a context or WaitGroup, which is also better code.
		return 0
	}
	stops := directCallStops(fn)
	if ff := sum.facts[fn]; ff != nil {
		stops |= ff.stops
	}
	return stops
}
