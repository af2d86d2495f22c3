package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Detrange flags `range` over a map whose loop body has order-dependent
// effects, in the packages that build MILP models, schedules or the systems
// they are solved on. Go map iteration order is randomized per run, so any
// append, emission call, write to surrounding non-map state, or draw from a
// surrounding *rand.Rand made under such a loop makes the emitted
// column/row order or the generated system — and hence the branch-and-bound
// trajectory and reported solve times — differ between identical runs. A
// draw is order-dependent because each one advances the generator: the
// values a seeded source hands out land on the map's keys in map order.
//
// Compliant loops iterate a sorted key slice (e.g. ordered.Keys) instead;
// loops whose per-iteration effects are genuinely commutative can carry a
// `//letvet:ordered` waiver on the range line or the line above it.
var Detrange = &Analyzer{
	Name:  "detrange",
	Doc:   "flags order-dependent iteration over maps in solver/model-building packages",
	Scope: scopeInternal("letopt", "combopt", "milp", "multidma", "experiments", "waters", "sysgen"),
	Run:   runDetrange,
}

func runDetrange(pass *Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		// Waiver check comes after effect detection: a waiver only counts
		// as used when it suppresses a real finding (stalewaiver contract).
		if node, what := orderDependentEffect(pass, rs); node != nil && !pass.waiverFor(rs, "ordered") {
			pass.Reportf(rs.Pos(), "range over map has order-dependent effect (%s); iterate sorted keys (ordered.Keys) or waive with //letvet:ordered", what)
		}
		return true
	})
	return nil
}

// orderDependentEffect scans a map-range body for the first statement whose
// outcome depends on iteration order: appends to or writes of surrounding
// state, emission-style method calls (Add*/Set*/Write*/...) on surrounding
// receivers, or calls that draw from a surrounding *rand.Rand (as the
// receiver or as an argument). Writes into surrounding *maps* are exempt — a
// keyed store commutes when the keys differ, and identical keys would be a
// logic bug regardless of order. So are the key and value of a `:=` range:
// they are declared before the body but are fresh in every iteration.
func orderDependentEffect(pass *Pass, rs *ast.RangeStmt) (ast.Node, string) {
	body := rs.Body
	lo, hi := body.Pos(), body.End()
	perIteration := map[types.Object]bool{}
	if rs.Tok == token.DEFINE {
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok && pass.TypesInfo.Defs[id] != nil {
				perIteration[pass.TypesInfo.Defs[id]] = true
			}
		}
	}
	outer := func(id *ast.Ident) bool {
		return id != nil && id.Name != "_" && !perIteration[pass.TypesInfo.Uses[id]] &&
			declaredOutside(pass.TypesInfo, id, lo, hi)
	}
	var found ast.Node
	var what string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if _, isMap := pass.TypesInfo.Types[ix.X].Type.Underlying().(*types.Map); isMap {
						continue // keyed map store: commutative across distinct keys
					}
				}
				id := baseIdent(lhs)
				if !outer(id) {
					continue
				}
				found, what = st, "write to "+id.Name
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
					if fid, ok := call.Fun.(*ast.Ident); ok && fid.Name == "append" {
						what = "append to " + id.Name
					}
				}
				return false
			}
		case *ast.IncDecStmt:
			if id := baseIdent(st.X); outer(id) {
				found, what = st, "update of "+id.Name
				return false
			}
		case *ast.CallExpr:
			if id := outerRandUse(pass, st, outer); id != nil {
				found, what = st, "draw from "+id.Name
				return false
			}
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !emissionName(sel.Sel.Name) {
				return true
			}
			if id := baseIdent(sel.X); outer(id) || selectorPkg(pass.TypesInfo, sel) != nil {
				found, what = st, "call to "+exprString(sel)
				return false
			}
		}
		return true
	})
	return found, what
}

// outerRandUse returns the surrounding *rand.Rand a call draws from — its
// receiver, or one of its arguments handed to a helper — or nil.
func outerRandUse(pass *Pass, call *ast.CallExpr, outer func(*ast.Ident) bool) *ast.Ident {
	isRand := func(e ast.Expr) *ast.Ident {
		id, ok := e.(*ast.Ident)
		if !ok || !outer(id) {
			return nil
		}
		if tv, ok := pass.TypesInfo.Types[e]; ok && namedAs(tv.Type, "rand", "Rand") {
			return id
		}
		return nil
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id := isRand(sel.X); id != nil {
			return id
		}
	}
	for _, arg := range call.Args {
		if id := isRand(arg); id != nil {
			return id
		}
	}
	return nil
}

// emissionName matches method names that append to ordered structures:
// variable/constraint registration, writers, printers.
func emissionName(name string) bool {
	for _, prefix := range []string{"Add", "Set", "Write", "Print", "Fprint", "Emit", "Append", "Push", "Record"} {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

func exprString(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
