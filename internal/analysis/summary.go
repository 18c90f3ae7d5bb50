package analysis

// Intra-package call summaries: the cheap interprocedural layer under
// the flow-sensitive rules. A per-function CFG sees that s.mu is held
// at a call to s.appendLocked; only a summary of appendLocked reveals
// that the call transitively fsyncs a file. Summaries are deliberately
// intra-package — cross-package flow would need whole-program analysis
// and the rules' scopes (serve, parallel, cache) are self-contained —
// and deliberately small: a bitset of blocking
// operations a function may perform and a bitset of goroutine
// stop-path signals it contains, closed under the package's static
// call graph by fixpoint.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// opSet is the set of blocking operations a function (or statement) may
// perform while executing on the caller's goroutine.
type opSet uint8

const (
	// opSend is a channel send outside a select-with-default.
	opSend opSet = 1 << iota
	// opRecv is a blocking channel receive (including range over a
	// channel).
	opRecv
	// opSelect is a select statement with no default clause.
	opSelect
	// opSync is (*os.File).Sync — a disk flush.
	opSync
	// opSubmit is Pool.Submit — the work-distribution entry point that
	// takes the pool's own lock.
	opSubmit
)

func (s opSet) any() bool { return s != 0 }

// describe names the first (most severe for the diagnostic) operation
// in the set.
func (s opSet) describe() string {
	switch {
	case s&opSend != 0:
		return "channel send"
	case s&opRecv != 0:
		return "channel receive"
	case s&opSelect != 0:
		return "blocking select"
	case s&opSync != 0:
		return "(*os.File).Sync"
	case s&opSubmit != 0:
		return "Pool.Submit"
	}
	return "blocking operation"
}

// stopSet is the set of goroutine stop-path signals a body contains.
type stopSet uint8

const (
	// stopChan: the body receives from, selects on, or ranges over a
	// channel — closing that channel (or cancelling the context whose
	// Done it watches) unblocks and terminates it.
	stopChan stopSet = 1 << iota
	// stopWG: the body signals a sync.WaitGroup, so a Close/Quiesce/
	// Drain path that Waits observes its exit.
	stopWG
	// stopServe: the body runs a net/http Server accept loop, which
	// terminates when the server is Closed or Shutdown.
	stopServe
)

// pkgSummary carries the per-function facts of one package.
type pkgSummary struct {
	info  *types.Info
	pkg   *types.Package
	facts map[*types.Func]*funcFacts
	decls map[*types.Func]*ast.FuncDecl
	// comms holds the operation nodes (SendStmt, UnaryExpr ARROW) that
	// are the communication of a select case: they block the select,
	// not the statement, and a select with default does not block at
	// all.
	comms map[ast.Node]bool
}

type funcFacts struct {
	ops   opSet
	stops stopSet
	// callees are the intra-package functions the body statically calls
	// (outside go statements and nested function literals).
	callees []*types.Func
}

// summarize computes the package's function summaries to fixpoint.
func summarize(pass *Pass) *pkgSummary {
	s := &pkgSummary{
		info:  pass.Info,
		pkg:   pass.Pkg,
		facts: map[*types.Func]*funcFacts{},
		decls: map[*types.Func]*ast.FuncDecl{},
		comms: map[ast.Node]bool{},
	}
	// Select communications first: the op scans consult the set.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CommClause); ok && cc.Comm != nil {
				switch c := cc.Comm.(type) {
				case *ast.SendStmt:
					s.comms[c] = true
				case *ast.ExprStmt:
					if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						s.comms[u] = true
					}
				case *ast.AssignStmt:
					for _, r := range c.Rhs {
						if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
							s.comms[u] = true
						}
					}
				}
			}
			return true
		})
	}

	var order []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s.decls[fn] = fd
			ff := &funcFacts{}
			s.scanBody(fd.Body, ff)
			s.facts[fn] = ff
			order = append(order, fn)
		}
	}

	// Close the facts under the intra-package call graph.
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			ff := s.facts[fn]
			for _, callee := range ff.callees {
				cf := s.facts[callee]
				if cf == nil {
					continue
				}
				if merged := ff.ops | cf.ops; merged != ff.ops {
					ff.ops = merged
					changed = true
				}
				if merged := ff.stops | cf.stops; merged != ff.stops {
					ff.stops = merged
					changed = true
				}
			}
		}
	}
	return s
}

// scanBody accumulates one body's direct facts. Nested function
// literals are skipped (their execution is not the body's), as are go
// statements (the spawned work blocks its own goroutine, not this one).
// Deferred calls count: they run on this goroutine at exit.
func (s *pkgSummary) scanBody(body *ast.BlockStmt, ff *funcFacts) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if !s.comms[n] {
				ff.ops |= opSend
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ff.stops |= stopChan
				if !s.comms[n] {
					ff.ops |= opRecv
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				ff.ops |= opSelect
			}
			if selectHasRecv(n) {
				ff.stops |= stopChan
			}
		case *ast.RangeStmt:
			if s.isChan(n.X) {
				ff.ops |= opRecv
				ff.stops |= stopChan
			}
		case *ast.CallExpr:
			fn := calleeFunc(s.info, n)
			if fn == nil {
				return true
			}
			ff.ops |= directCallOps(fn)
			ff.stops |= directCallStops(fn)
			if fn.Pkg() == s.pkg {
				ff.callees = append(ff.callees, fn)
			}
		}
		return true
	})
}

// opsOfCall reports the blocking operations one call may perform:
// direct classification plus the intra-package summary of the callee.
func (s *pkgSummary) opsOfCall(call *ast.CallExpr) opSet {
	fn := calleeFunc(s.info, call)
	if fn == nil {
		return 0
	}
	ops := directCallOps(fn)
	if ff := s.facts[fn]; ff != nil {
		ops |= ff.ops
	}
	return ops
}

// bodyStops reports the stop-path signals of a goroutine body: direct
// facts plus, one call level at a time through the summaries, anything
// an intra-package callee contributes.
func (s *pkgSummary) bodyStops(body *ast.BlockStmt) stopSet {
	ff := &funcFacts{}
	s.scanBody(body, ff)
	stops := ff.stops
	for _, callee := range ff.callees {
		if cf := s.facts[callee]; cf != nil {
			stops |= cf.stops
		}
	}
	return stops
}

// isChan reports whether e's type is (or points at) a channel.
func (s *pkgSummary) isChan(e ast.Expr) bool {
	t := s.info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// directCallOps classifies calls to known blocking entry points.
func directCallOps(fn *types.Func) opSet {
	switch fn.FullName() {
	case "(*os.File).Sync":
		return opSync
	}
	// Pool.Submit matches by receiver type name so the rule is
	// exercisable from testdata fixtures as well as against
	// internal/parallel itself.
	if fn.Name() == "Submit" {
		if n := recvNamed(fn); n != nil && n.Obj().Name() == "Pool" {
			return opSubmit
		}
	}
	return 0
}

// directCallStops classifies calls that constitute a stop path.
func directCallStops(fn *types.Func) stopSet {
	full := fn.FullName()
	switch full {
	case "(*sync.WaitGroup).Done":
		return stopWG
	case "(*net/http.Server).Serve", "(*net/http.Server).ListenAndServe",
		"(*net/http.Server).ListenAndServeTLS",
		"net/http.ListenAndServe", "net/http.ListenAndServeTLS",
		"net/http.Serve":
		return stopServe
	}
	// context.Context.Err checks are a cancellation-aware loop's idiom.
	if fn.Name() == "Err" || fn.Name() == "Done" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if strings.HasPrefix(sig.Recv().Type().String(), "context.Context") {
				return stopChan
			}
		}
	}
	return 0
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func selectHasRecv(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt, *ast.AssignStmt:
			_ = c
			return true
		}
	}
	return false
}
