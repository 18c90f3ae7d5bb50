// Package analysis is viplint's home: a suite of repo-specific static
// analyzers that machine-check the invariants the simulator's whole
// evaluation methodology rests on — same seed, byte-identical timelines,
// metrics and energy ledgers. Generic linters (vet, staticcheck) cannot
// express these rules; one stray time.Now or one map-order-dependent
// event emission silently breaks reproducibility without failing a
// single test.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic, testdata packages with "want" comments) but is built
// entirely on the standard library's go/ast, go/parser, go/types and
// go/importer, so the module keeps zero external dependencies and the
// linter builds offline with nothing but the Go toolchain.
//
// Violations that are intentional — e.g. vipserve's host clock — are
// silenced in place with a comment directive on the offending line or
// the line directly above it:
//
//	return time.Now() //viplint:allow simdeterminism -- host service clock (deadlines/uptime), never simulated state
//
// The directive names the rule (comma-separate several); everything
// after "--" is a human-readable justification. Undirected suppression
// ("allow everything") is deliberately not supported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of this repository. The analyzers
// are repo-specific by design (they encode this codebase's conventions),
// so hard-wiring the module path keeps every rule precise.
const ModulePath = "github.com/vipsim/vip"

// simPackages are the engine-adjacent packages where the strictest rules
// apply: all model state advances on the single-threaded event loop and
// all randomness flows through the forked *sim.RNG streams.
var simPackages = []string{
	"internal/sim", "internal/core", "internal/ipcore", "internal/noc",
	"internal/dram", "internal/cpu", "internal/platform", "internal/fault",
}

// Analyzer is one named rule.
type Analyzer struct {
	// Name identifies the rule in diagnostics and in //viplint:allow
	// directives.
	Name string
	// Doc is the one-paragraph rationale shown by `viplint -rules`.
	Doc string
	// Match restricts the rule to packages whose import path satisfies
	// it; nil applies the rule everywhere. Packages outside the module
	// (the analyzers' own testdata fixtures) always match, so fixtures
	// exercise rules without impersonating module paths.
	Match func(pkgPath string) bool
	// Run reports the rule's findings on one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Rule    string
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     pos,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// IsOurs reports whether pkg is part of this module (or is the package
// under analysis itself, which covers testdata fixtures that define
// their own types). The standard library is never "ours".
func (p *Pass) IsOurs(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg == p.Pkg || strings.HasPrefix(pkg.Path(), ModulePath)
}

// matchesModule reports whether pkgPath is policed by a rule scoped with
// scope (a set of module-relative path prefixes). Packages outside the
// module — the testdata fixtures — are always policed.
func matchesModule(pkgPath string, scope []string) bool {
	if !strings.HasPrefix(pkgPath, ModulePath) {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, ModulePath), "/")
	for _, s := range scope {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

// matchSimPackages scopes a rule to the engine-adjacent packages.
func matchSimPackages(pkgPath string) bool {
	return matchesModule(pkgPath, simPackages)
}

// concPackages are the long-lived, goroutine- and lock-bearing packages
// where the flow-sensitive concurrency rules apply: the serving stack,
// the worker pool, the disk cache, and the metrics exporter. The engine packages are deliberately excluded — they are
// single-threaded by construction and simdeterminism already bans
// spawning goroutines there.
var concPackages = []string{
	"internal/serve", "internal/parallel", "internal/cache",
	"internal/metrics",
}

// matchConcPackages scopes a rule to the concurrency-bearing packages.
func matchConcPackages(pkgPath string) bool {
	return matchesModule(pkgPath, concPackages)
}

// matchNonMain scopes a rule to library packages: everything in the
// module except the cmd/ binaries and examples/, which legitimately talk
// to the host (flags, stdout, wall clock around a whole run).
func matchNonMain(pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, ModulePath) {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, ModulePath), "/")
	return !strings.HasPrefix(rel, "cmd/") && !strings.HasPrefix(rel, "examples/")
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		Walltime,
		MapOrder,
		ProbeGuard,
		ErrCheckCodec,
		FsyncDiscipline,
		SimLoop,
		PkgDoc,
		LockDiscipline,
		GoroLeak,
		AtomicMix,
		DeferInLoop,
	}
}

// ByName resolves a comma-separated rule list; it errors on unknown
// names so CI typos fail loudly.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("viplint: unknown rule %q", n)
		}
	}
	return out, nil
}

// UnusedAllow is a //viplint:allow directive that suppressed no
// diagnostic of the named rule in a run that included the rule: dead
// weight that lets the allowlist rot (or a typo hiding a real
// intention).
type UnusedAllow struct {
	Pos  token.Pos
	Rule string
}

// RunAnalyzers applies every matching analyzer to pkg and returns the
// surviving diagnostics, sorted by position: findings on lines carrying
// (or directly below) a //viplint:allow directive naming the rule are
// suppressed. The second result lists the allow directives that
// suppressed nothing (considering only rules in this run's set, so a
// -run subset never flags allows for rules it didn't execute).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []UnusedAllow, error) {
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		if a.Match != nil && !a.Match(pkg.Path) {
			continue
		}
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags, unused := suppressAllowed(pkg, diags, ran)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags, unused, nil
}

// allowDirective parses one comment's //viplint:allow payload into the
// rule names it silences (nil when the comment is not a directive).
func allowDirective(text string) []string {
	const prefix = "//viplint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	// Everything after "--" is the justification.
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	if rest == "" {
		return nil
	}
	var rules []string
	for _, r := range strings.Split(rest, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	return rules
}

// allowEntry is one rule named by one directive, with its use tracked.
type allowEntry struct {
	rule string
	pos  token.Pos
	used bool
}

// suppressAllowed drops diagnostics covered by an allow directive on the
// same line or the line immediately above, and reports the directives
// (restricted to rules in ran) that covered nothing.
func suppressAllowed(pkg *Package, diags []Diagnostic, ran map[string]bool) ([]Diagnostic, []UnusedAllow) {
	// file -> line -> entries declared there.
	allowed := make(map[string]map[int][]*allowEntry)
	var entries []*allowEntry
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules := allowDirective(c.Text)
				if rules == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := allowed[pos.Filename]
				if m == nil {
					m = make(map[int][]*allowEntry)
					allowed[pos.Filename] = m
				}
				for _, r := range rules {
					e := &allowEntry{rule: r, pos: c.Pos()}
					m[pos.Line] = append(m[pos.Line], e)
					entries = append(entries, e)
				}
			}
		}
	}
	if len(allowed) == 0 {
		return diags, nil
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		lines := allowed[pos.Filename]
		if markAllowed(lines[pos.Line], d.Rule) || markAllowed(lines[pos.Line-1], d.Rule) {
			continue
		}
		kept = append(kept, d)
	}
	var unused []UnusedAllow
	for _, e := range entries {
		if !e.used && ran[e.rule] {
			unused = append(unused, UnusedAllow{Pos: e.pos, Rule: e.rule})
		}
	}
	sort.Slice(unused, func(i, j int) bool {
		if unused[i].Pos != unused[j].Pos {
			return unused[i].Pos < unused[j].Pos
		}
		return unused[i].Rule < unused[j].Rule
	})
	return kept, unused
}

// markAllowed reports whether entries allow rule, marking every
// matching entry used (a directive naming the rule twice, or two
// directives on adjacent lines, are all "doing something").
func markAllowed(entries []*allowEntry, rule string) bool {
	found := false
	for _, e := range entries {
		if e.rule == rule {
			e.used = true
			found = true
		}
	}
	return found
}

// calleeFunc resolves the *types.Func a call expression invokes (nil for
// builtins, conversions, and calls through function-typed variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// recvNamed returns the named type of fn's receiver (through pointers),
// or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// funcReturnsError reports whether fn's final result is the builtin
// error type.
func funcReturnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}
