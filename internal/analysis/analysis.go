// Package analysis is the repo's static-contract framework: a
// self-contained reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a package loader built on
// `go list -export` and the stdlib gc export-data importer.
//
// The toolchain image this repo builds under has no module cache and no
// network, so the x/tools module itself is unavailable; analyzers here
// are written against the same shape as x/tools analyzers — a Run
// function over a type-checked Pass — so porting them onto the real
// framework is a mechanical change of import path, not a rewrite.
//
// The framework exists to turn three repo-wide invariants from
// test-time luck into compile-time law (DESIGN.md §12):
//
//   - determinism: simulation packages never read wall clocks, global
//     RNG state, or map iteration order that can reach output;
//   - hot-path memory discipline: functions annotated //alisa:hotpath
//     stay free of the allocation idioms the serving-loop alloc guards
//     exist to catch;
//   - one cancellation predicate: context-cancellation tests go through
//     serve.IsCancellation.
//
// The closed name tables of built-in schedulers and attention policies
// need no analyzer: their types are unexported, so the compiler already
// rejects a construction that bypasses the table.
//
// cmd/alisa-lint is the multichecker-style driver; analyzertest runs
// analyzers over fixture modules with // want expectations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name findings are reported
// under, documentation, and a Run function applied to each loaded
// package. Match, when non-nil, restricts the analyzer to packages whose
// import path it accepts; a nil Match means every package.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //alisa:ignore suppression comments. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Match restricts the analyzer to accepted import paths (nil = all).
	Match func(pkgPath string) bool
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer, mirroring
// x/tools' analysis.Pass: syntax, type information, and a Report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package is one loaded, parsed, type-checked package ready for
// analysis.
type Package struct {
	// Path is the package's import path (e.g. "repro/internal/serve").
	Path string
	// Dir is the directory holding the package's sources.
	Dir string
	// Fset positions every file in the load (shared across packages).
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Pkg and Info are the type-checker's output.
	Pkg  *types.Package
	Info *types.Info
}
