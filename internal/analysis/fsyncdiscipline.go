package analysis

import (
	"go/ast"
	"go/types"
)

// durablePackages are the packages whose on-disk artifacts carry a
// crash-safety contract: the content-addressed result cache's envelope
// files and the pending markers written beside them.
var durablePackages = []string{"internal/cache"}

// FsyncDiscipline flags discarded errors from (*os.File).Close and
// (*os.File).Sync in the durable-storage packages. Those two calls are
// where the kernel finally admits a write failed: an fsync that errors
// means the data never reached stable storage, and close is the last
// chance to hear about it. Dropping either error (including via a bare
// `defer f.Close()`) turns "persisted before acknowledged" into a
// silent lie — the crash-recovery guarantees of the cache and its
// pending markers rest on every one of these errors being propagated
// or deliberately, visibly waived with an allow directive.
var FsyncDiscipline = &Analyzer{
	Name: "fsyncdiscipline",
	Doc: "flag discarded (*os.File).Close/Sync errors in internal/cache " +
		"(results and pending markers); durability errors surface only " +
		"there, so they must be handled or explicitly allowed",
	Match: matchDurablePackages,
	Run:   runFsyncDiscipline,
}

// matchDurablePackages scopes the rule to the crash-safety packages.
func matchDurablePackages(pkgPath string) bool {
	return matchesModule(pkgPath, durablePackages)
}

// osFileFlush reports whether fn is (*os.File).Close or (*os.File).Sync.
func osFileFlush(fn *types.Func) bool {
	if fn == nil || (fn.Name() != "Close" && fn.Name() != "Sync") {
		return false
	}
	recv := recvNamed(fn)
	if recv == nil {
		return false
	}
	obj := recv.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}

func runFsyncDiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					flagFlushDiscard(pass, call, "return value dropped")
				}
			case *ast.DeferStmt:
				// The classic bug: `defer f.Close()` on a file that was
				// written — the only report of a failed flush evaporates.
				flagFlushDiscard(pass, n.Call, "deferred result dropped")
			case *ast.GoStmt:
				flagFlushDiscard(pass, n.Call, "goroutine result dropped")
			case *ast.AssignStmt:
				flagFlushBlank(pass, n)
			}
			return true
		})
	}
	return nil
}

// flagFlushDiscard reports a policed call whose error result vanishes.
func flagFlushDiscard(pass *Pass, call *ast.CallExpr, how string) {
	fn := calleeFunc(pass.Info, call)
	if !osFileFlush(fn) {
		return
	}
	pass.Reportf(call.Pos(),
		"error from (*os.File).%s discarded (%s); durability errors surface only here — handle it or annotate why it cannot matter",
		fn.Name(), how)
}

// flagFlushBlank reports `_ = f.Close()` and its parallel-assignment
// forms.
func flagFlushBlank(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != len(as.Lhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := calleeFunc(pass.Info, call)
		if !osFileFlush(fn) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(),
				"error from (*os.File).%s assigned to _; durability errors surface only here — handle it or annotate why it cannot matter",
				fn.Name())
		}
	}
}
