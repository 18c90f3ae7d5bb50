package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrCheckCodec flags discarded errors from the module's codec and
// accounting surfaces: Decode*, Scenario/Config Validate*, and
// report/exporter Write* methods. These errors are the only signal
// that an input was malformed, a scenario was rejected, or an
// output artifact is truncated — swallowing them turns hard failures
// into silently wrong evaluation data. Generic errcheck linters are not
// in CI and would not scope the rule to these repo-critical call sites.
var ErrCheckCodec = &Analyzer{
	Name: "errcheckcodec",
	Doc: "flag discarded errors from module Decode*/Validate*/Write* " +
		"functions; codec, validation and report-writing failures must " +
		"be handled or explicitly allowed",
	Run: runErrCheckCodec,
}

// codecFunc reports whether fn is one of the policed module functions.
func codecFunc(pass *Pass, fn *types.Func) bool {
	if !pass.IsOurs(fn.Pkg()) {
		return false
	}
	name := fn.Name()
	return strings.HasPrefix(name, "Decode") ||
		strings.HasPrefix(name, "Validate") || strings.HasPrefix(name, "validate") ||
		strings.HasPrefix(name, "Write")
}

func runErrCheckCodec(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscard(pass, call, "return value dropped")
				}
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			case *ast.GoStmt:
				checkDiscard(pass, n.Call, "goroutine result dropped")
			case *ast.DeferStmt:
				checkDiscard(pass, n.Call, "deferred result dropped")
			}
			return true
		})
	}
	return nil
}

// checkDiscard flags a policed call whose error result vanishes.
func checkDiscard(pass *Pass, call *ast.CallExpr, how string) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !funcReturnsError(fn) || !codecFunc(pass, fn) {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s discarded (%s); codec/validation/report errors must be handled",
		fn.Name(), how)
}

// checkBlankAssign flags `_ = f()` / `v, _ := g()` where the blanked
// position is a policed error.
func checkBlankAssign(pass *Pass, as *ast.AssignStmt) {
	// Only the single-call forms can discard a call's error: either one
	// call on the rhs with tuple results, or a 1:1 assignment.
	if len(as.Rhs) == 1 && len(as.Lhs) >= 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || !funcReturnsError(fn) || !codecFunc(pass, fn) {
			return
		}
		// The error is the final result; it maps to the final lhs.
		last := as.Lhs[len(as.Lhs)-1]
		if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(),
				"error from %s assigned to _; codec/validation/report errors must be handled",
				fn.Name())
		}
		return
	}
	// Parallel form: `a, b = f(), g()`.
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || !funcReturnsError(fn) || !codecFunc(pass, fn) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(call.Pos(),
					"error from %s assigned to _; codec/validation/report errors must be handled",
					fn.Name())
			}
		}
	}
}
