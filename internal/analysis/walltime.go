package analysis

import (
	"go/ast"
	"go/types"
)

// walltimePackages are the packages policed by the walltime rule: the
// engine-adjacent simulator packages plus the observability pipeline
// (telemetry spans and phase timeline, metrics). The pipeline carries the
// engine's deterministic output — one wall-clock read smuggled in as a
// span attribute or a metric value silently breaks byte-identical
// artifacts, which is why it is held to the engine's standard.
var walltimePackages = append([]string{
	"internal/telemetry", "internal/metrics",
}, simPackages...)

// Walltime is the strict companion to SimDeterminism for the two-clock
// -domain discipline: sim-time flows from the sim.Engine clock and
// wall-clock reads live only in the serving layer (which has its own
// single read point). SimDeterminism flags *calls*; this rule flags any
// *reference* to a forbidden time function — including taking its value
// (`clock := time.Now`), which would smuggle the host clock past a
// call-only check and into an engine or telemetry code path.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: "forbid any reference (not just calls) to wall-clock time " +
		"functions in the engine and telemetry/metrics packages; " +
		"sim-time comes from sim.Engine, wall-clock spans belong to the " +
		"serving layer",
	Match: func(pkgPath string) bool { return matchesModule(pkgPath, walltimePackages) },
	Run:   runWalltime,
}

func runWalltime(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			// Methods (time.Time.Sub, Duration.String, ...) compute on
			// values already in hand; only the package-level clock
			// readers and timers are forbidden.
			if recvNamed(fn) != nil {
				return true
			}
			if why, bad := forbiddenTimeFuncs[fn.Name()]; bad {
				pass.Reportf(sel.Pos(),
					"reference to time.%s %s; this package is in the deterministic clock domain — derive time from sim.Engine (wall-clock telemetry belongs to the serving layer)",
					fn.Name(), why)
			}
			return true
		})
	}
	return nil
}
