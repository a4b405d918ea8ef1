// Package registry enforces the by-name contract from DESIGN.md §7:
// outside the packages that own them, built-in schedulers and attention
// policies are reached through their name tables (ByName /
// FactoryByName / MustByName), never constructed directly. Direct
// construction can skip the defaults the table's constructor sets — a
// literal &sched.Alisa{} runs with AutoTune and Recompute off — and
// silently forks the evaluation set the paper's pinned results iterate.
package registry

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Builtins lists, per owning package, the constructor functions and
// concrete type names that are registry-reachable and therefore
// off-limits to direct construction elsewhere. Parameterized ablation
// constructors (sched.NewAlisaManual, sched.NewPCIeSplit) are absent
// deliberately: they take arguments no registry name can carry.
type Builtins struct {
	// Constructors are forbidden function names in the owning package.
	Constructors []string
	// Types are forbidden composite-literal type names (T{} / &T{}) in
	// the owning package; type references (assertions, declarations)
	// stay legal.
	Types []string
}

// Config maps owning-package import paths to their protected built-ins.
type Config map[string]Builtins

// DefaultConfig protects the paper's evaluation sets: the registered
// scheduler constructors of internal/sched and the registered
// sparse-attention policies of internal/attention. sched's
// static-placement members (flexgen, gpu-only, deepspeed-zero,
// hf-accelerate) share one unexported type with no constructor, so the
// compiler already keeps other packages from building them.
var DefaultConfig = Config{
	"repro/internal/sched": {
		Constructors: []string{"NewAlisa", "NewVLLM", "NewNoCache"},
		Types:        []string{"Alisa", "VLLM", "NoCache"},
	},
	"repro/internal/attention": {
		Constructors: []string{"NewDense", "NewLocal", "NewStrided", "NewSWA", "NewH2O"},
		Types:        []string{"Dense", "Local", "Strided", "SWA", "H2O"},
	},
}

// New returns the analyzer enforcing cfg. The owning packages
// themselves are exempt — their name tables are where direct
// construction belongs.
func New(cfg Config) *analysis.Analyzer {
	ctors := make(map[string]map[string]bool, len(cfg))
	typs := make(map[string]map[string]bool, len(cfg))
	for path, b := range cfg {
		ctors[path] = nameSet(b.Constructors)
		typs[path] = nameSet(b.Types)
	}
	return &analysis.Analyzer{
		Name: "registry",
		Doc:  "forbid direct construction of registry-reachable built-ins outside their owning package",
		Run: func(pass *analysis.Pass) error {
			return run(pass, ctors, typs)
		},
	}
}

// Analyzer is the production instance enforcing DefaultConfig.
var Analyzer = New(DefaultConfig)

func nameSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func run(pass *analysis.Pass, ctors, typs map[string]map[string]bool) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n, ctors)
			case *ast.CompositeLit:
				checkLit(pass, n, typs)
			}
			return true
		})
	}
	return nil
}

// checkCall flags calls to protected constructors from outside the
// owning package.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, ctors map[string]map[string]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	home := fn.Pkg().Path()
	if home == pass.Pkg.Path() || !ctors[home][fn.Name()] {
		return
	}
	pass.Reportf(call.Pos(), "direct construction of built-in %s.%s bypasses the registry; resolve it by name (ByName / FactoryByName / MustByName)", fn.Pkg().Name(), fn.Name())
}

// checkLit flags composite literals of protected built-in types from
// outside the owning package (covers the &T{...} bypass of the
// constructor ban).
func checkLit(pass *analysis.Pass, lit *ast.CompositeLit, typs map[string]map[string]bool) {
	t := pass.TypesInfo.TypeOf(lit)
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	home := named.Obj().Pkg().Path()
	if home == pass.Pkg.Path() || !typs[home][named.Obj().Name()] {
		return
	}
	pass.Reportf(lit.Pos(), "composite literal of built-in %s.%s bypasses the registry; resolve it by name (ByName / FactoryByName / MustByName)", named.Obj().Pkg().Name(), named.Obj().Name())
}
