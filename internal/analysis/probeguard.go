package analysis

import (
	"go/ast"
	"regexp"
	"strings"
)

// constructionFunc matches the function names where metric registration
// is allowed: constructors and the register*/Register* helpers they
// call. Everything else runs after construction, where registration
// would mutate the registry mid-run (and, behind a sampler, mid-sample).
var constructionFunc = regexp.MustCompile(`^(New|new|Register|register|Start|start|Init|init)`)

// ProbeGuard confines Registry.Distribution/Gauge registration
// to component construction: late registration would change the
// sampler's gauge set mid-run and desynchronize exported series. The
// probes themselves (telemetry.Recorder, metrics.Registry and its
// handles) are nil-safe pointers, so calls through them need no guard.
var ProbeGuard = &Analyzer{
	Name:  "probeguard",
	Doc:   "confine metrics registration to component construction",
	Match: matchNonMain,
	Run:   runProbeGuard,
}

func runProbeGuard(pass *Pass) error {
	for _, f := range pass.Files {
		var funcStack []ast.Node
		var inspect func(n ast.Node) bool
		inspect = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcStack = append(funcStack, n)
				var body *ast.BlockStmt
				if fd, ok := n.(*ast.FuncDecl); ok {
					body = fd.Body
				} else {
					body = n.(*ast.FuncLit).Body
				}
				if body != nil {
					ast.Inspect(body, inspect)
				}
				funcStack = funcStack[:len(funcStack)-1]
				return false
			case *ast.CallExpr:
				checkRegistration(pass, n, funcStack)
			}
			return true
		}
		ast.Inspect(f, inspect)
	}
	return nil
}

// checkRegistration flags Registry.Distribution/Gauge calls
// whose innermost named function is not a constructor/registrar. A
// function literal between the call and the named function means the
// registration runs at some later, unpredictable time, which is flagged
// regardless of the outer name.
func checkRegistration(pass *Pass, call *ast.CallExpr, funcStack []ast.Node) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !pass.IsOurs(fn.Pkg()) {
		return
	}
	recv := recvNamed(fn)
	if recv == nil || recv.Obj().Name() != "Registry" {
		return
	}
	switch fn.Name() {
	case "Distribution", "Gauge":
	default:
		return
	}
	// The metrics package itself may self-register (sampler bookkeeping).
	if strings.HasSuffix(pass.Pkg.Path(), "/internal/metrics") {
		return
	}
	if len(funcStack) == 0 {
		return // package-level var initializer: effectively construction
	}
	for i := len(funcStack) - 1; i >= 0; i-- {
		switch f := funcStack[i].(type) {
		case *ast.FuncLit:
			pass.Reportf(call.Pos(),
				"metrics registration via Registry.%s inside a function literal; register at component construction so the sampler's gauge set is fixed for the whole run",
				fn.Name())
			return
		case *ast.FuncDecl:
			if !constructionFunc.MatchString(f.Name.Name) {
				pass.Reportf(call.Pos(),
					"metrics registration via Registry.%s in %s; register at component construction (New*/register*) so the sampler's gauge set is fixed for the whole run",
					fn.Name(), f.Name.Name)
			}
			return
		}
	}
}
