package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Sharedwrite is the concurrency-discipline analyzer. It finds closures
// that escape to a goroutine — the function literal of a `go` statement,
// or a literal handed to a function that (transitively) invokes it from a
// goroutine, per the spawn summaries of callgraph.go; that second form is
// how it sees through worker pools like the fixture's forEachIndexed, a
// helper that runs its callback on the goroutines it starts — and flags
// every write to a captured variable inside them that has no
// synchronization discipline. Such a write is a
// data race, and even when it happens to survive the race detector it
// makes results depend on goroutine scheduling, which the repository's
// determinism guarantee (DESIGN.md §7) forbids.
//
// Two disciplines are recognized as safe:
//
//   - the pre-indexed slot: a write s[i] = v into a captured slice or
//     array where the index is computed from the closure's own locals or
//     parameters, so every invocation owns a disjoint slot (the
//     worker-pool contract, as in the fixture's forEachIndexed); and
//   - a mutex guard: a write lexically preceded, within the closure, by a
//     .Lock() call on a captured sync.Mutex/RWMutex.
//
// Everything else — counters (n++), appends, assignments to captured
// scalars or map entries — is reported. Channel-based handoff designs
// should move the write to the receiving side; genuinely benign cases can
// carry a `//letvet:sharedwrite <justification>` waiver.
var Sharedwrite = &Analyzer{
	Name: "sharedwrite",
	Doc:  "flags unguarded writes to captured variables in goroutine-run closures",
	Run:  runSharedwrite,
}

func runSharedwrite(pass *Pass) error {
	info := pass.TypesInfo
	spawns := computeSpawns(pass)

	seen := make(map[*ast.FuncLit]bool)
	var concurrent []*ast.FuncLit
	// addLits collects the outermost function literals under n. Literals
	// nested inside them run on the same spawned goroutine and are covered
	// by the outer literal's capture analysis.
	addLits := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				if !seen[lit] {
					seen[lit] = true
					concurrent = append(concurrent, lit)
				}
				return false
			}
			return true
		})
	}

	pass.Inspect(func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			addLits(st.Call)
		case *ast.CallExpr:
			callee := calleeOf(info, st)
			if callee == nil {
				return true
			}
			sum := spawns[callee]
			if sum == 0 {
				return true
			}
			nparams := len(paramObjs(callee))
			for j, op := range callOperands(st, callee, info) {
				if sum&spawnBit(operandIndex(j, nparams)) != 0 {
					addLits(op)
				}
			}
		}
		return true
	})

	for _, lit := range concurrent {
		checkConcurrentClosure(pass, lit)
	}
	return nil
}

// checkConcurrentClosure reports the unguarded captured writes of one
// goroutine-run closure.
func checkConcurrentClosure(pass *Pass, lit *ast.FuncLit) {
	info := pass.TypesInfo
	writes := capturedWrites(info, lit)
	if len(writes) == 0 {
		return
	}
	guard := mutexLockPos(pass, lit)
	for _, w := range writes {
		if w.lhs != nil && isSlotWrite(pass, lit, w.lhs) {
			continue
		}
		if guard != token.NoPos && guard < w.node.Pos() {
			continue
		}
		if pass.waiverFor(w.node, "sharedwrite") {
			continue
		}
		pass.Reportf(w.node.Pos(),
			"%s captured by a goroutine-run closure, without a mutex or pre-indexed slot: result depends on goroutine schedule (guard it, write into a closure-indexed slot, or waive with //letvet:sharedwrite)",
			w.desc)
	}
}

// isSlotWrite reports whether lhs follows the pre-indexed slot discipline:
// the written location is an element of a captured slice or array selected
// by an index built from the closure's own variables, so concurrent
// invocations write disjoint slots. Map element writes never qualify —
// concurrent map writes fault regardless of key disjointness.
func isSlotWrite(pass *Pass, lit *ast.FuncLit, lhs ast.Expr) bool {
	ix := innerIndexExpr(lhs)
	if ix == nil {
		return false
	}
	t := pass.TypesInfo.Types[ix.X].Type
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
	default:
		return false
	}
	return closureLocalExpr(pass.TypesInfo, lit, ix.Index)
}

// innerIndexExpr unwraps selector/star/paren layers around the written
// lvalue down to its indexing expression: outs[i].res → outs[i].
func innerIndexExpr(lhs ast.Expr) *ast.IndexExpr {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			return x
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		default:
			return nil
		}
	}
}

// closureLocalExpr reports whether every variable in e is declared by the
// closure itself (a parameter or local), and at least one is — a constant
// index like s[0] would collide across invocations of a pooled closure.
func closureLocalExpr(info *types.Info, lit *ast.FuncLit, e ast.Expr) bool {
	local := true
	sawVar := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		sawVar = true
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			local = false
		}
		return true
	})
	return local && sawVar
}

// mutexLockPos returns the position of the lexically first .Lock() call on
// a sync.Mutex or sync.RWMutex inside the closure, or NoPos. Writes after
// it are treated as guarded — lexical rather than path-sensitive, which is
// deliberately coarse but matches how straight-line worker bodies are
// written.
func mutexLockPos(pass *Pass, lit *ast.FuncLit) token.Pos {
	pos := token.NoPos
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Lock" {
			return true
		}
		recv := pass.TypesInfo.Types[sel.X].Type
		if namedAs(recv, "sync", "Mutex") || namedAs(recv, "sync", "RWMutex") {
			if pos == token.NoPos || call.Pos() < pos {
				pos = call.Pos()
			}
		}
		return true
	})
	return pos
}
