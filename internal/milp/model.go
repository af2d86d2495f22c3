// Package milp is a self-contained mixed-integer linear programming solver
// built for the LET-DMA optimization problem of Section VI, replacing the
// proprietary solver (IBM CPLEX) used in the paper's evaluation.
//
// The solver consists of:
//
//   - a model builder with named variables, bounds, integrality marks and
//     linear constraints (this file);
//   - a bounded-variable two-phase revised primal simplex for LP
//     relaxations (simplex.go), running on a sparse LU factorization of
//     the basis with a product-form eta file (lu.go) and devex pricing
//     with partial scans (see DESIGN.md section 14);
//   - a branch-and-bound search with most-fractional branching, a
//     best-bound/depth-first hybrid node order, warm-start incumbents, a
//     wall-clock time limit and MIP-gap termination (branch.go);
//   - a dual-simplex warm-start path (warm.go): each node caches its
//     final basis and children are solved from it, fathoming by bound
//     cutoff or proven infeasibility, or repairing to the child's LP
//     optimum without a cold phase-1 solve; anything the warm solve
//     cannot settle falls back to the cold solve (see DESIGN.md
//     section 11);
//   - a light presolve (presolve.go) and an LP-format writer (lpwrite.go).
//
// The implementation is deterministic: solving the same model twice yields
// the same solution and node count.
package milp

import (
	"fmt"
	"math"
)

// Inf is the bound value representing +infinity.
var Inf = math.Inf(1)

// VarType marks the integrality requirement of a variable.
type VarType int

const (
	// Continuous variables may take any real value within bounds.
	Continuous VarType = iota
	// Integer variables must take integral values within bounds.
	Integer
	// Binary variables are integer variables with bounds [0, 1].
	Binary
)

// VarID indexes a variable within its Model.
type VarID int

// Var is a decision variable.
type Var struct {
	ID   VarID
	Name string
	Type VarType
	Lo   float64
	Hi   float64
}

// Term is one coefficient*variable product of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Expr is a linear expression: sum of terms plus a constant.
// The zero value is the expression 0.
type Expr struct {
	Terms []Term
	Const float64
}

// NewExpr returns an expression with the given constant.
func NewExpr(c float64) Expr { return Expr{Const: c} }

// Add returns e + coef*v. The receiver is not modified.
func (e Expr) Add(v VarID, coef float64) Expr {
	out := Expr{Terms: append(append([]Term(nil), e.Terms...), Term{Var: v, Coef: coef}), Const: e.Const}
	return out
}

// AddConst returns e + c.
func (e Expr) AddConst(c float64) Expr {
	return Expr{Terms: append([]Term(nil), e.Terms...), Const: e.Const + c}
}

// AddExpr returns e + o.
func (e Expr) AddExpr(o Expr) Expr {
	return Expr{
		Terms: append(append([]Term(nil), e.Terms...), o.Terms...),
		Const: e.Const + o.Const,
	}
}

// Sum returns coef * (v1 + v2 + ...).
func Sum(coef float64, vs ...VarID) Expr {
	e := Expr{}
	for _, v := range vs {
		e.Terms = append(e.Terms, Term{Var: v, Coef: coef})
	}
	return e
}

// Sense is the relation of a linear constraint.
type Sense int

const (
	// LE is "<=".
	LE Sense = iota
	// GE is ">=".
	GE
	// EQ is "==".
	EQ
)

// String returns the usual notation for s.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Constraint is a linear constraint: Terms (sense) RHS.
type Constraint struct {
	Name  string
	Terms []Term
	Sense Sense
	RHS   float64
}

// ObjSense selects minimization or maximization.
type ObjSense int

const (
	// Minimize the objective.
	Minimize ObjSense = iota
	// Maximize the objective.
	Maximize
)

// Model is a mixed-integer linear program.
type Model struct {
	Vars     []Var
	Cons     []Constraint
	Obj      Expr
	ObjSense ObjSense
}

// NewModel returns an empty minimization model.
func NewModel() *Model { return &Model{ObjSense: Minimize} }

// AddVar adds a variable with the given bounds and type.
// Lo may be -Inf and Hi may be +Inf for continuous or integer variables.
func (m *Model) AddVar(name string, t VarType, lo, hi float64) VarID {
	if t == Binary {
		lo, hi = 0, 1
	}
	id := VarID(len(m.Vars))
	m.Vars = append(m.Vars, Var{ID: id, Name: name, Type: t, Lo: lo, Hi: hi})
	return id
}

// AddBinary adds a binary variable.
func (m *Model) AddBinary(name string) VarID { return m.AddVar(name, Binary, 0, 1) }

// AddContinuous adds a continuous variable with bounds [lo, hi].
func (m *Model) AddContinuous(name string, lo, hi float64) VarID {
	return m.AddVar(name, Continuous, lo, hi)
}

// AddInteger adds an integer variable with bounds [lo, hi].
func (m *Model) AddInteger(name string, lo, hi float64) VarID {
	return m.AddVar(name, Integer, lo, hi)
}

// AddConstraint adds the constraint "e (sense) rhs". The expression constant
// is folded into the right-hand side.
func (m *Model) AddConstraint(name string, e Expr, s Sense, rhs float64) {
	m.Cons = append(m.Cons, Constraint{
		Name:  name,
		Terms: mergeTerms(e.Terms),
		Sense: s,
		RHS:   rhs - e.Const,
	})
}

// AddLE adds e <= rhs.
func (m *Model) AddLE(name string, e Expr, rhs float64) { m.AddConstraint(name, e, LE, rhs) }

// AddGE adds e >= rhs.
func (m *Model) AddGE(name string, e Expr, rhs float64) { m.AddConstraint(name, e, GE, rhs) }

// AddEQ adds e == rhs.
func (m *Model) AddEQ(name string, e Expr, rhs float64) { m.AddConstraint(name, e, EQ, rhs) }

// SetObjective sets the objective function.
func (m *Model) SetObjective(sense ObjSense, e Expr) {
	m.ObjSense = sense
	m.Obj = Expr{Terms: mergeTerms(e.Terms), Const: e.Const}
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.Vars) }

// NumCons returns the number of constraints.
func (m *Model) NumCons() int { return len(m.Cons) }

// mergeTerms sums duplicate variable coefficients and drops zeros, keeping
// first-occurrence variable order for determinism.
func mergeTerms(ts []Term) []Term {
	idx := make(map[VarID]int, len(ts))
	out := make([]Term, 0, len(ts))
	for _, t := range ts {
		if i, ok := idx[t.Var]; ok {
			out[i].Coef += t.Coef
			continue
		}
		idx[t.Var] = len(out)
		out = append(out, t)
	}
	filtered := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			filtered = append(filtered, t)
		}
	}
	return filtered
}

// Eval returns the value of e under assignment x.
func (e Expr) Eval(x []float64) float64 {
	v := e.Const
	for _, t := range e.Terms {
		v += t.Coef * x[t.Var]
	}
	return v
}

// Violation returns how much assignment x violates constraint c
// (0 if satisfied).
func (c Constraint) Violation(x []float64) float64 {
	lhs := 0.0
	for _, t := range c.Terms {
		lhs += t.Coef * x[t.Var]
	}
	switch c.Sense {
	case LE:
		return math.Max(0, lhs-c.RHS)
	case GE:
		return math.Max(0, c.RHS-lhs)
	default:
		return math.Abs(lhs - c.RHS)
	}
}

// CheckFeasible verifies that x satisfies every constraint, bound and
// integrality requirement of the model within tol. It returns the first
// violation found.
func (m *Model) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(m.Vars) {
		return fmt.Errorf("milp: assignment has %d values for %d variables", len(x), len(m.Vars))
	}
	for _, v := range m.Vars {
		xv := x[v.ID]
		if xv < v.Lo-tol || xv > v.Hi+tol {
			return fmt.Errorf("milp: variable %s = %g outside bounds [%g, %g]", v.Name, xv, v.Lo, v.Hi)
		}
		if v.Type != Continuous && math.Abs(xv-math.Round(xv)) > tol {
			return fmt.Errorf("milp: variable %s = %g is not integral", v.Name, xv)
		}
	}
	for _, c := range m.Cons {
		if viol := c.Violation(x); viol > tol {
			return fmt.Errorf("milp: constraint %s violated by %g", c.Name, viol)
		}
	}
	return nil
}
