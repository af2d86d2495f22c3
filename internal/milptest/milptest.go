// Package milptest holds the shared MILP test corpus: the 51 fixed
// instances pinned by internal/milp/testdata/kernel_golden.json. It lives in
// its own package (rather than a _test.go helper) so that external test
// packages — the kernel golden test, the FastSearch equivalence tests, and
// any future cross-package differential harness — can all iterate the exact
// same instances. The construction is frozen: the golden file pins each
// instance's status, objective and (for the depth-first engine) the
// node/iteration trajectory, so any change here invalidates the pins and
// must go through the -update flow deliberately.
package milptest

import (
	"fmt"
	"math/rand"

	"letdma/internal/milp"
)

// Instance is one named corpus model.
type Instance struct {
	Name string
	M    *milp.Model
}

// RandomModel builds a small random MILP from the given generator: 2-5
// integer variables with small boxes, 1-4 mixed-sense rows, a random
// integer objective of either sense. This is the same family (and must stay
// byte-identical to the one) used by the in-package milp engine tests; the
// kernel-golden corpus seeds it with 977.
func RandomModel(rng *rand.Rand) *milp.Model {
	m := milp.NewModel()
	nv := 2 + rng.Intn(4)
	for i := 0; i < nv; i++ {
		m.AddInteger("x", 0, float64(1+rng.Intn(3)))
	}
	nc := 1 + rng.Intn(4)
	for c := 0; c < nc; c++ {
		e := milp.NewExpr(0)
		for i := 0; i < nv; i++ {
			e = e.Add(milp.VarID(i), float64(rng.Intn(7)-3))
		}
		rhs := float64(rng.Intn(13) - 4)
		switch rng.Intn(3) {
		case 0:
			m.AddLE("c", e, rhs)
		case 1:
			m.AddGE("c", e, rhs)
		default:
			m.AddEQ("c", e, rhs)
		}
	}
	obj := milp.NewExpr(0)
	for i := 0; i < nv; i++ {
		obj = obj.Add(milp.VarID(i), float64(rng.Intn(11)-5))
	}
	sense := milp.Minimize
	if rng.Intn(2) == 1 {
		sense = milp.Maximize
	}
	m.SetObjective(sense, obj)
	return m
}

// Corpus returns the fixed 51-instance corpus behind
// testdata/kernel_golden.json: 48 seeded random models plus handcrafted LPs
// covering equality rows, redundant rows, continuous-only models and a
// fractional knapsack relaxation. Instances are rebuilt on every call, so
// callers may solve them destructively.
func Corpus() []Instance {
	var out []Instance
	add := func(name string, m *milp.Model) {
		out = append(out, Instance{Name: name, M: m})
	}

	rng := rand.New(rand.NewSource(977))
	for i := 0; i < 48; i++ {
		add(fmt.Sprintf("rand%02d", i), RandomModel(rng))
	}

	// Transportation LP: continuous, known optimum 210.
	{
		supply := []float64{20, 30, 25}
		demand := []float64{10, 25, 15, 25}
		cost := [][]float64{{2, 3, 1, 4}, {5, 4, 8, 1}, {9, 7, 3, 6}}
		m := milp.NewModel()
		xs := make([][]milp.VarID, 3)
		obj := milp.NewExpr(0)
		for i := range xs {
			xs[i] = make([]milp.VarID, 4)
			for j := range xs[i] {
				xs[i][j] = m.AddContinuous("x", 0, milp.Inf)
				obj = obj.Add(xs[i][j], cost[i][j])
			}
		}
		for i, s := range supply {
			e := milp.NewExpr(0)
			for j := range demand {
				e = e.Add(xs[i][j], 1)
			}
			m.AddLE("supply", e, s)
		}
		for j, d := range demand {
			e := milp.NewExpr(0)
			for i := range supply {
				e = e.Add(xs[i][j], 1)
			}
			m.AddGE("demand", e, d)
		}
		m.SetObjective(milp.Minimize, obj)
		add("transport", m)
	}

	// Degenerate equality system with a redundant (scaled-duplicate) row.
	{
		m := milp.NewModel()
		x := m.AddInteger("x", 0, 5)
		y := m.AddInteger("y", 0, 5)
		m.AddEQ("e1", milp.Sum(1, x, y), 4)
		m.AddEQ("e2", milp.NewExpr(0).Add(x, 2).Add(y, 2), 8)
		m.SetObjective(milp.Minimize, milp.NewExpr(0).Add(x, 3).Add(y, 1))
		add("redundant_eq", m)
	}

	// Knapsack-ish binary model with a fractional relaxation.
	{
		m := milp.NewModel()
		w := []float64{3, 5, 7, 4, 6}
		v := []float64{4, 6, 9, 5, 7}
		e := milp.NewExpr(0)
		obj := milp.NewExpr(0)
		for i := range w {
			b := m.AddBinary(fmt.Sprintf("b%d", i))
			e = e.Add(b, w[i])
			obj = obj.Add(b, v[i])
		}
		m.AddLE("cap", e, 12)
		m.SetObjective(milp.Maximize, obj)
		add("knapsack", m)
	}
	return out
}
