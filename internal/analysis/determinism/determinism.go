// Package determinism enforces the simulator's bit-identical
// replay/fork contract (DESIGN.md §§9–11) mechanically: simulation
// packages must be pure functions of (seed, config), so they may not
// read wall clocks, draw from the process-global RNG, or let map
// iteration order reach anything a caller can observe.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Packages is the enforced set: every package whose state feeds a
// pinned, replayable result. Paths are prefixes — "repro/internal/metrics"
// covers metrics/sketch. cmd/ (`alisa paper` times each experiment) and
// the experiment drivers stay free to read wall clocks.
var Packages = []string{
	"repro/internal/core",
	"repro/internal/serve",
	"repro/internal/cluster",
	"repro/internal/oracle",
	"repro/internal/metrics",
	"repro/internal/sched",
	"repro/internal/attention",
	"repro/internal/trace",
	"repro/internal/workload",
}

// MatchDefault reports whether path falls under the enforced set.
func MatchDefault(path string) bool {
	for _, p := range Packages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// randAllowed are the package-level math/rand names that are
// deterministic given an explicit seed and therefore legal: stream and
// distribution constructors. Everything else at package level draws
// from the shared global source.
var randAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// New returns the analyzer restricted to packages accepted by match
// (nil = every package; the production configuration is MatchDefault).
func New(match func(string) bool) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:  "determinism",
		Doc:   "forbid wall clocks, global math/rand, and observable map iteration order in simulation packages",
		Match: match,
		Run:   run,
	}
}

// Analyzer is the production instance enforcing Packages.
var Analyzer = New(MatchDefault)

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkForbiddenRef(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkForbiddenRef flags references to time.Now/time.Since and to
// package-level math/rand functions outside the seeded-constructor
// allowlist. Resolution is by type-checked object, so a local package
// alias cannot dodge the check.
func checkForbiddenRef(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Only package-level functions: methods (e.g. (*rand.Rand).Intn,
	// (time.Time).Sub) carry their own explicit state and are fine.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if name := fn.Name(); name == "Now" || name == "Since" {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock; simulation time must come from the simulated clock so replay and fork stay bit-identical", name)
		}
	case "math/rand", "math/rand/v2":
		if !randAllowed[fn.Name()] {
			pass.Reportf(sel.Pos(), "global math/rand state (rand.%s) is shared across the process; draw from an explicitly seeded *rand.Rand stream instead", fn.Name())
		}
	}
}

// checkMapRanges flags `range` over a map whose body lets iteration
// order escape — an append, a channel send, a return, an emit-style fmt
// call, or a float accumulation inside the loop. One escape is
// tolerated: appending into a slice that the same function later passes
// to a sort call, the canonical collect-then-sort idiom the name tables
// use, because sorting erases the order again.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if _, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); isMap {
				ranges = append(ranges, rs)
			}
		}
		return true
	})
	for _, rs := range ranges {
		if why := orderEscape(pass, body, rs); why != "" {
			pass.Reportf(rs.Pos(), "map iteration order reaches %s; iterate a sorted key list or sort the collected result (replay must be bit-identical)", why)
		}
	}
}

// orderEscape reports how iteration order leaks out of the map range,
// or "" when the body is order-insensitive under this analyzer's rules.
func orderEscape(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) string {
	why := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			why = "a return"
		case *ast.SendStmt:
			why = "a channel send"
		case *ast.CallExpr:
			switch {
			case isAppend(pass, n):
				if target, ok := n.Args[0].(*ast.Ident); ok && sortedAfter(pass, fnBody, rs, target) {
					return true
				}
				why = "an append"
			case isEmit(pass, n):
				why = "an emitted output"
			}
		case *ast.AssignStmt:
			if isFloatAccumulation(pass, rs, n) {
				why = "a float accumulation"
			}
		}
		return true
	})
	return why
}

// accumOps are the compound assignments that fold one operand into a
// running value.
var accumOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
}

// isFloatAccumulation reports whether as folds into a float variable
// declared outside rs. Float arithmetic is not associative, so such a
// sum differs in its last bits with the iteration order. Per-key writes
// (dst[k] += v), integer sums and floats local to the body stay legal.
func isFloatAccumulation(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt) bool {
	if !accumOps[as.Tok] {
		return false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
		return false
	}
	b, ok := obj.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isEmit recognizes fmt printing calls — output a reader sees in
// iteration order.
func isEmit(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")
}

// sortFuncs are the sort/slices entry points that restore a
// deterministic order over a collected slice.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"SortFunc": true, "SortStableFunc": true,
}

// sortedAfter reports whether target (the appended-to slice) is passed
// to a sort call after the range statement in the same function body,
// which restores a deterministic order.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, target *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[target]
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if !sortFuncs[fn.Name()] {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.Uses[arg] == obj {
			sorted = true
		}
		return true
	})
	return sorted
}
