package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the package-level call-graph layer of the dataflow engine
// (DESIGN.md §13): it enumerates the package's function declarations in a
// deterministic order, resolves call sites to their static callees, and
// computes the goroutine-spawn summary that sharedwrite uses to see
// through worker-pool plumbing like the sharedwrite fixture's
// forEachIndexed, which runs its callback on the goroutines it starts.
//
// Scope and honesty: the graph covers statically-resolvable calls to
// functions and methods declared in the package under analysis. Calls
// through interfaces, function-typed variables, or into other packages
// have no summary; the taint layer (taint.go) falls back to a documented
// conservative default for them.

// collectFuncs returns the package's function and method declarations with
// bodies, keyed by their types.Func, plus a deterministic (file and source
// order) iteration order for fixpoint loops.
func collectFuncs(pass *Pass) (map[*types.Func]*ast.FuncDecl, []*types.Func) {
	decls := make(map[*types.Func]*ast.FuncDecl)
	var order []*types.Func
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			order = append(order, fn)
		}
	}
	return decls, order
}

// calleeOf resolves a call expression to its static callee, or nil for
// calls through function values, interfaces, or builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// paramObjs returns the callee-side value operands of fn in a canonical
// order: the receiver (for methods) followed by the declared parameters.
// Summary bitmasks (taint.go, computeSpawns) index into this slice.
func paramObjs(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// callOperands returns the caller-side expressions aligned with
// paramObjs(callee): the receiver expression (for method calls) followed
// by the arguments. For a method expression T.M(x, ...) the receiver is
// already the first ordinary argument, so the alignment holds as-is.
func callOperands(call *ast.CallExpr, callee *types.Func, info *types.Info) []ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return call.Args
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && !tv.IsType() {
			return append([]ast.Expr{sel.X}, call.Args...)
		}
	}
	return call.Args
}

// operandIndex clamps a caller-side operand position onto a callee
// parameter index, folding extra variadic arguments onto the last
// parameter.
func operandIndex(i, nparams int) int {
	if nparams == 0 {
		return 0
	}
	if i >= nparams {
		return nparams - 1
	}
	return i
}

// spawnBit is the bit for parameter index i in a spawn summary. Parameter
// lists beyond 63 entries fold onto the last bit — conservative, and far
// beyond anything in this module.
func spawnBit(i int) uint64 {
	if i > 63 {
		i = 63
	}
	return 1 << uint(i)
}

// isFuncType reports whether t's underlying type is a function signature.
func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// computeSpawns computes, for every function in the package, the set of
// func-typed parameters (as paramObjs bits) whose value the function hands
// to a goroutine: referenced inside a `go` statement's call, or passed on
// to another package function that does. The fixpoint makes the summary
// transitive, so a wrapper that forwards its callback to a worker pool is
// itself recognized as a spawner — this is how sharedwrite knows that a
// closure given to a worker pool (the fixture's forEachIndexed) runs
// concurrently even though no `go` keyword appears at the call site.
func computeSpawns(pass *Pass) map[*types.Func]uint64 {
	decls, order := collectFuncs(pass)
	spawns := make(map[*types.Func]uint64, len(order))
	info := pass.TypesInfo

	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			params := paramObjs(fn)
			if len(params) == 0 {
				continue
			}
			pidx := make(map[types.Object]int, len(params))
			for i, p := range params {
				if isFuncType(p.Type()) {
					pidx[p] = i
				}
			}
			if len(pidx) == 0 {
				continue
			}
			// paramRefs ORs the spawn bits of func-typed parameters
			// referenced anywhere under n.
			paramRefs := func(n ast.Node) uint64 {
				var m uint64
				ast.Inspect(n, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok {
						if i, ok := pidx[info.Uses[id]]; ok {
							m |= spawnBit(i)
						}
					}
					return true
				})
				return m
			}
			mask := spawns[fn]
			ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.GoStmt:
					mask |= paramRefs(st.Call)
				case *ast.CallExpr:
					callee := calleeOf(info, st)
					if callee == nil || callee == fn {
						return true
					}
					s := spawns[callee]
					if s == 0 {
						return true
					}
					nparams := len(paramObjs(callee))
					for j, op := range callOperands(st, callee, info) {
						if s&spawnBit(operandIndex(j, nparams)) != 0 {
							mask |= paramRefs(op)
						}
					}
				}
				return true
			})
			if mask != spawns[fn] {
				spawns[fn] = mask
				changed = true
			}
		}
	}
	return spawns
}
