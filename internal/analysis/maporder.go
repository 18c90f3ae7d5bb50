package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` statements over maps whose body performs an
// order-sensitive effect: scheduling engine events, constructing
// components (constructors register gauges, fork RNG streams and number
// engine events), emitting trace or metrics records, writing output, or
// appending to a slice that is never sorted afterwards. Go randomizes
// map iteration order per run, so any of these turns into run-to-run
// nondeterminism that a fixed seed cannot remove. The fix is the
// sorted-keys idiom:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)
//	for _, k := range keys { ... m[k] ... }
//
// (The key-collection loop itself is fine: it only appends, and the
// slice is sorted before anything order-sensitive consumes it.)
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose body schedules events, constructs " +
		"components, emits trace/metrics records, writes output, or " +
		"appends to an unsorted slice; iterate sorted keys instead",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		// Walk with enclosing-function context so the append heuristic
		// can look for a later sort call in the same function body.
		var enclosing ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				enclosing = n
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						checkMapRange(pass, n, enclosing)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRange reports the first order-sensitive effect in the body of
// a map-range statement.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, enclosing ast.Node) {
	done := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if done {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltin(pass.Info, call, "append") {
			if target, bad := unsortedAppendTarget(pass, call, rng, enclosing); bad {
				done = true
				pass.Reportf(rng.Pos(),
					"map iteration appends to %q in random key order and the slice is never sorted; iterate sorted keys instead",
					target)
			}
			return true
		}
		if why := effectfulCall(pass, call); why != "" {
			done = true
			pass.Reportf(rng.Pos(),
				"map iteration %s in random key order; iterate sorted keys instead", why)
		}
		return true
	})
}

// effectfulCall classifies a call inside a map-range body; it returns a
// non-empty description when the call's observable effect depends on
// iteration order.
func effectfulCall(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	pkgPath := fn.Pkg().Path()
	recv := recvNamed(fn)

	// Output in map order: fmt.Fprint* and Write*/Print* methods.
	if pkgPath == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
		return "writes output via fmt." + fn.Name()
	}
	if recv != nil && (strings.HasPrefix(fn.Name(), "Write") || strings.HasPrefix(fn.Name(), "Print")) {
		return "writes output via " + recv.Obj().Name() + "." + fn.Name()
	}

	if !pass.IsOurs(fn.Pkg()) {
		return ""
	}
	// Component constructors register metrics, fork RNG streams and
	// schedule initial events.
	if recv == nil && strings.HasPrefix(fn.Name(), "New") {
		return "constructs components via " + fn.Name()
	}
	// Anything else in internal/sim mutates the engine (scheduling, RNG
	// draws): event sequence numbers and stream states then depend on
	// key order.
	if strings.HasSuffix(pkgPath, "/internal/sim") {
		return "calls sim." + fn.Name() + " (engine/RNG state advances)"
	}
	if recv != nil {
		switch recv.Obj().Name() + "." + fn.Name() {
		case "Registry.Gauge", "Registry.Distribution":
			return "registers metrics via " + recv.Obj().Name() + "." + fn.Name()
		case "Distribution.Observe":
			return "records metrics via " + recv.Obj().Name() + "." + fn.Name()
		case "Recorder.Emit", "Recorder.Instant", "Recorder.Phase", "Recorder.PhaseMark",
			"Recorder.FrameSubmit", "Recorder.FrameDrop", "Recorder.Frame",
			"Recorder.FrameExpired", "Recorder.Detour", "Recorder.Hop":
			return "emits trace events via " + recv.Obj().Name() + "." + fn.Name()
		}
	}
	return ""
}

// unsortedAppendTarget reports whether an append inside the map range
// grows a slice declared outside the loop that is not passed to a sort
// after the loop ends. Appending keys and sorting them is the blessed
// idiom, so sorted accumulators are exempt.
func unsortedAppendTarget(pass *Pass, call *ast.CallExpr, rng *ast.RangeStmt, enclosing ast.Node) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := pass.Info.Uses[id]
	if obj == nil || obj.Pos() == token.NoPos {
		return "", false
	}
	// Declared inside the loop body: each iteration gets its own slice,
	// so ordering across keys cannot leak out through it.
	if obj.Pos() > rng.Pos() && obj.Pos() < rng.End() {
		return "", false
	}
	if enclosing != nil && sortedAfter(pass, enclosing, obj, rng.End()) {
		return "", false
	}
	return id.Name, true
}

// sortedAfter reports whether obj is passed to a sort.* or slices.Sort*
// call after pos within fn.
func sortedAfter(pass *Pass, fn ast.Node, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		p := callee.Pkg().Path()
		if p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentions(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentions reports whether expr references obj.
func mentions(pass *Pass, expr ast.Expr, obj types.Object) bool {
	seen := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			seen = true
			return false
		}
		return !seen
	})
	return seen
}
