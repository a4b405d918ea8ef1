// Package hotpath enforces the serving loop's steady-state memory
// discipline (DESIGN.md §8) on every function annotated with the
// //alisa:hotpath directive: no fmt formatting, no append into a slice
// declared without capacity, no escaping closures, and no interface
// boxing inside loops. The alloc guards (TestServeSteadyStateAllocs and
// friends) measure the outcome; this analyzer names the line that broke
// it before the benchmark has to.
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Directive marks a function as part of the allocation-free steady
// state. The annotation is load-bearing: the analyzer checks annotated
// functions, and the inventory test pins the annotated set so it cannot
// silently shrink.
const Directive = "//alisa:hotpath"

// Analyzer checks every annotated function in every package it is run
// over; unannotated code is never flagged.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocation idioms (fmt formatting, growing appends, escaping closures, boxing in loops) in //alisa:hotpath functions",
	Run:  run,
}

// IsAnnotated reports whether fn carries the hotpath directive in its
// doc comment. Shared with the inventory test so "annotated" has
// exactly one definition.
func IsAnnotated(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !IsAnnotated(fn) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	bare := bareSliceDecls(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkFmt(pass, n)
			checkAppend(pass, n, bare)
		case *ast.FuncLit:
			if capture := capturedLocal(pass, fn, n); capture != "" && !immediatelyCalled(fn, n) {
				pass.Reportf(n.Pos(), "closure captures %q and escapes the hot path; hoist the state or pass it explicitly (captures allocate per call)", capture)
				return false
			}
		case *ast.ForStmt:
			checkLoopBoxing(pass, n.Body)
		case *ast.RangeStmt:
			checkLoopBoxing(pass, n.Body)
		}
		return true
	})
}

// checkFmt flags fmt string formatting; building strings allocates.
// fmt.Errorf stays legal: hot functions construct errors only on cold
// exits, and banning it would just push the same boxing into manual
// wrappers.
func checkFmt(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	switch fn.Name() {
	case "Sprintf", "Sprint", "Sprintln":
		pass.Reportf(call.Pos(), "fmt.%s allocates on the hot path; format on the cold side (error exits) instead", fn.Name())
	}
}

// bareSliceDecls collects the function's local slice variables declared
// with no capacity — `var xs []T`, `xs := []T{}`, or make with a
// constant-zero length and no capacity — the declarations whose appends
// grow by reallocation.
func bareSliceDecls(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	bare := make(map[types.Object]bool)
	mark := func(id *ast.Ident) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				bare[obj] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, id := range vs.Names {
					mark(id)
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !uncappedSliceExpr(pass, n.Rhs[i]) {
					continue
				}
				mark(id)
			}
		}
		return true
	})
	return bare
}

// uncappedSliceExpr reports whether e builds an empty slice with no
// capacity hint.
func uncappedSliceExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		_, isSlice := pass.TypesInfo.TypeOf(e).Underlying().(*types.Slice)
		return isSlice && len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return false
		}
		if len(e.Args) != 2 {
			return false // 3-arg make carries a capacity
		}
		tv := pass.TypesInfo.Types[e.Args[1]]
		return tv.Value != nil && tv.Value.String() == "0"
	}
	return false
}

// checkAppend flags appends into capacity-less local slices: steady
// state must append into preallocated or reused scratch.
func checkAppend(pass *analysis.Pass, call *ast.CallExpr, bare map[types.Object]bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	if bare[pass.TypesInfo.Uses[target]] {
		pass.Reportf(call.Pos(), "append into %q, declared without capacity, grows by reallocation on the hot path; preallocate (make with capacity) or reuse scratch", target.Name)
	}
}

// capturedLocal returns the name of an enclosing-function local the
// literal captures, or "" when the literal is self-contained.
func capturedLocal(pass *analysis.Pass, fn *ast.FuncDecl, lit *ast.FuncLit) string {
	capture := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if capture != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function but outside
		// the literal itself.
		if v.Pos() >= fn.Pos() && v.Pos() <= fn.End() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			capture = v.Name()
		}
		return true
	})
	return capture
}

// immediatelyCalled reports whether lit is the callee of a direct call
// (func(){...}(), including deferred/go'd forms), which cannot outlive
// the frame.
func immediatelyCalled(fn *ast.FuncDecl, lit *ast.FuncLit) bool {
	called := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == lit {
			called = true
		}
		return !called
	})
	return called
}

// checkLoopBoxing flags concrete values converted to interface types
// inside a loop body — per-iteration boxing the escape analyzer rarely
// saves. Conversions inside return statements are exempt: those are
// cold exits leaving the loop.
func checkLoopBoxing(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ReturnStmt:
			// Cold exit leaving the loop.
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			// Nested loops are visited by checkFunc's own walk; skipping
			// them here keeps every report single.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if conv, to := asInterfaceConversion(pass, call); conv {
			pass.Reportf(call.Pos(), "conversion to interface %s inside a loop boxes per iteration; hoist it out of the loop", to)
			return true
		}
		checkCallBoxing(pass, call)
		return true
	})
}

// asInterfaceConversion reports whether call is a type conversion to an
// interface type from a concrete type.
func asInterfaceConversion(pass *analysis.Pass, call *ast.CallExpr) (bool, string) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false, ""
	}
	if !types.IsInterface(tv.Type) {
		return false, ""
	}
	argT := pass.TypesInfo.TypeOf(call.Args[0])
	if argT == nil || types.IsInterface(argT) {
		return false, ""
	}
	return true, tv.Type.String()
}

// checkCallBoxing flags concrete arguments passed to interface
// parameters. Spread calls (f(xs...)) pass an existing slice and box
// nothing new.
func checkCallBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	if call.Ellipsis.IsValid() {
		return
	}
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "passing concrete %s to interface parameter boxes per loop iteration; hoist the conversion or keep the call off the hot loop", at.String())
	}
}
