package milp

import (
	"math"
	"math/rand"
	"testing"
)

// denseFromBasis assembles the dense m×m basis matrix B whose column j is
// cols[basis[j]].
func denseFromBasis(cols []sparseCol, basis []int, m int) [][]float64 {
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		c := cols[basis[j]]
		for k, row := range c.rows {
			a[row][j] = c.vals[k]
		}
	}
	return a
}

// denseSolve solves A x = rhs by Gaussian elimination with partial
// pivoting; ok is false when A is numerically singular.
func denseSolve(a [][]float64, rhs []float64) ([]float64, bool) {
	m := len(a)
	aw := make([][]float64, m)
	for i := range aw {
		aw[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), rhs...)
	for k := 0; k < m; k++ {
		piv, pv := -1, 1e-9
		for i := k; i < m; i++ {
			if v := math.Abs(aw[i][k]); v > pv {
				piv, pv = i, v
			}
		}
		if piv < 0 {
			return nil, false
		}
		aw[k], aw[piv] = aw[piv], aw[k]
		x[k], x[piv] = x[piv], x[k]
		for i := k + 1; i < m; i++ {
			f := aw[i][k] / aw[k][k]
			if f == 0 {
				continue
			}
			for j := k; j < m; j++ {
				aw[i][j] -= f * aw[k][j]
			}
			x[i] -= f * x[k]
		}
	}
	for k := m - 1; k >= 0; k-- {
		s := x[k]
		for j := k + 1; j < m; j++ {
			s -= aw[k][j] * x[j]
		}
		x[k] = s / aw[k][k]
	}
	return x, true
}

func transposeDense(a [][]float64) [][]float64 {
	m := len(a)
	at := make([][]float64, m)
	for i := range at {
		at[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			at[i][j] = a[j][i]
		}
	}
	return at
}

// randomSparseBasis generates m sparse columns with a guaranteed diagonal
// entry (so the basis is almost surely invertible) plus up to three random
// off-diagonal entries each.
func randomSparseBasis(rng *rand.Rand, m int) ([]sparseCol, []int) {
	cols := make([]sparseCol, m)
	basis := make([]int, m)
	for j := 0; j < m; j++ {
		basis[j] = j
		seen := map[int]bool{j: true}
		cols[j].rows = append(cols[j].rows, j)
		cols[j].vals = append(cols[j].vals, float64(rng.Intn(9)+1)*signOf(rng))
		for extra := rng.Intn(4); extra > 0; extra-- {
			r := rng.Intn(m)
			if seen[r] {
				continue
			}
			seen[r] = true
			cols[j].rows = append(cols[j].rows, r)
			cols[j].vals = append(cols[j].vals, float64(rng.Intn(11)-5))
		}
	}
	return cols, basis
}

func signOf(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestLUFactorSolve checks ftran/btran of the sparse LU factorization
// against a dense Gaussian-elimination reference on random sparse bases.
func TestLUFactorSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(24)
		cols, basis := randomSparseBasis(rng, m)
		dense := denseFromBasis(cols, basis, m)
		denseT := transposeDense(dense)

		f := &luFactor{m: m}
		if err := f.factorize(cols, basis); err != nil {
			// The random basis can be singular; the dense reference must
			// agree that it is.
			if _, ok := denseSolve(dense, make([]float64, m)); ok {
				t.Fatalf("trial %d: sparse LU singular, dense reference is not: %v", trial, err)
			}
			continue
		}

		for rep := 0; rep < 3; rep++ {
			rhs := make([]float64, m)
			for i := range rhs {
				rhs[i] = float64(rng.Intn(21) - 10)
			}
			want, ok := denseSolve(dense, rhs)
			if !ok {
				continue
			}
			got := append([]float64(nil), rhs...)
			f.ftran(got)
			if d := maxAbsDiff(got, want); d > 1e-8 {
				t.Fatalf("trial %d m=%d: ftran differs from dense solve by %g", trial, m, d)
			}

			wantT, ok := denseSolve(denseT, rhs)
			if !ok {
				continue
			}
			gotT := append([]float64(nil), rhs...)
			f.btran(gotT)
			if d := maxAbsDiff(gotT, wantT); d > 1e-8 {
				t.Fatalf("trial %d m=%d: btran differs from dense solve by %g", trial, m, d)
			}
		}
	}
}

// TestLUSingular checks that a structurally singular basis (duplicated
// column) is reported instead of factorized.
func TestLUSingular(t *testing.T) {
	cols := []sparseCol{
		{rows: []int{0, 1}, vals: []float64{1, 2}},
		{rows: []int{0, 1}, vals: []float64{2, 4}}, // scalar multiple
	}
	f := &luFactor{m: 2}
	if err := f.factorize(cols, []int{0, 1}); err == nil {
		t.Fatal("factorize accepted a singular basis")
	}
	// The scratch accumulator must be clean for the next factorization.
	good := []sparseCol{
		{rows: []int{0}, vals: []float64{1}},
		{rows: []int{1}, vals: []float64{1}},
	}
	if err := f.factorize(good, []int{0, 1}); err != nil {
		t.Fatalf("factorize after singular failure: %v", err)
	}
	v := []float64{3, 5}
	f.ftran(v)
	if v[0] != 3 || v[1] != 5 {
		t.Fatalf("identity ftran corrupted by earlier singular attempt: %v", v)
	}
}

// newBasisRep returns an empty basis representation for m rows that
// counts into stats.
func newBasisRep(m int, stats *KernelStats) *basisRep {
	b := &basisRep{}
	b.reset(m, stats)
	return b
}

// TestSingularRefactorCounted: a refactorization that finds the basis
// singular is counted as SingularRefactors, not as a refactorization. The
// basis holds two columns of the same variable pattern (one a multiple of
// the other) in a workspace that had a valid cold start.
func TestSingularRefactorCounted(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	y := m.AddContinuous("y", 0, 10)
	m.AddLE("a", NewExpr(0).Add(x, 1).Add(y, 2), 8)
	m.AddLE("b", NewExpr(0).Add(x, 2).Add(y, 4), 9)
	m.SetObjective(Minimize, Sum(1, x, y))
	lo, hi := rootBounds(m)
	s := new(simplexState)
	s.startCold(newTemplate(m), lo, hi)
	if s.stats.Refactorizations != 1 || s.stats.SingularRefactors != 0 {
		t.Fatalf("cold start: refactors=%d singular=%d, want 1 and 0", s.stats.Refactorizations, s.stats.SingularRefactors)
	}
	for i := range s.basis {
		s.state[s.basis[i]] = stLower
	}
	s.basis[0], s.basis[1] = int(x), int(y)
	s.state[x], s.state[y] = stBasic, stBasic
	if err := s.refactorize(); err == nil {
		t.Fatal("refactorize accepted a singular basis")
	}
	if s.stats.Refactorizations != 1 || s.stats.SingularRefactors != 1 {
		t.Fatalf("after the singular basis: refactors=%d singular=%d, want 1 and 1", s.stats.Refactorizations, s.stats.SingularRefactors)
	}
	var k KernelStats
	k.add(s.stats)
	k.add(k)
	if k.Refactorizations != 2 || k.SingularRefactors != 2 {
		t.Fatalf("KernelStats folding: refactorizations=%d singular=%d, want 2 and 2", k.Refactorizations, k.SingularRefactors)
	}
}

// TestBasisRepEtaUpdates replaces basis columns one at a time through the
// product-form eta file and checks every intermediate representation
// against a fresh factorization of the updated basis.
func TestBasisRepEtaUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(16)
		cols, basis := randomSparseBasis(rng, m)
		// A pool of replacement columns, same construction.
		extra, _ := randomSparseBasis(rng, m)
		for i := range extra {
			cols = append(cols, extra[i])
		}

		var stats KernelStats
		rep := newBasisRep(m, &stats)
		if err := rep.factorize(cols, basis); err != nil {
			continue
		}

		for upd := 0; upd < 6; upd++ {
			r := rng.Intn(m)
			enter := m + rng.Intn(m)
			// w = B⁻¹ a_enter through the current representation.
			w := make([]float64, m)
			for k, row := range cols[enter].rows {
				w[row] = cols[enter].vals[k]
			}
			rep.ftran(w)
			if math.Abs(w[r]) < 1e-6 {
				continue // unacceptable pivot; skip this replacement
			}
			basis[r] = enter
			rep.update(r, w)

			// Reference: fresh factorization of the updated basis.
			var refStats KernelStats
			ref := newBasisRep(m, &refStats)
			if err := ref.factorize(cols, basis); err != nil {
				t.Fatalf("trial %d upd %d: reference refactorization singular", trial, upd)
			}
			rhs := make([]float64, m)
			for i := range rhs {
				rhs[i] = float64(rng.Intn(21) - 10)
			}
			a := append([]float64(nil), rhs...)
			b := append([]float64(nil), rhs...)
			rep.ftran(a)
			ref.ftran(b)
			if d := maxAbsDiff(a, b); d > 1e-7 {
				t.Fatalf("trial %d upd %d: eta-file ftran drifts from refactorized ftran by %g", trial, upd, d)
			}
			a = append(a[:0], rhs...)
			b = append(b[:0], rhs...)
			rep.btran(a)
			ref.btran(b)
			if d := maxAbsDiff(a, b); d > 1e-7 {
				t.Fatalf("trial %d upd %d: eta-file btran drifts from refactorized btran by %g", trial, upd, d)
			}
		}
		if stats.EtaUpdates > 0 && stats.EtaNnz == 0 {
			t.Fatalf("trial %d: eta updates counted without eta nonzeros", trial)
		}
	}
}

// TestLUDeterminism: two factorizations of the same basis must agree
// bit-for-bit in their solves — the byte-reproducibility of the whole
// solver rests on this.
func TestLUDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(20)
		cols, basis := randomSparseBasis(rng, m)
		f1 := &luFactor{m: m}
		f2 := &luFactor{m: m}
		if err := f1.factorize(cols, basis); err != nil {
			continue
		}
		if err := f2.factorize(cols, basis); err != nil {
			t.Fatalf("trial %d: second factorization failed where first succeeded", trial)
		}
		rhs := make([]float64, m)
		for i := range rhs {
			rhs[i] = rng.Float64()*20 - 10
		}
		a := append([]float64(nil), rhs...)
		b := append([]float64(nil), rhs...)
		f1.ftran(a)
		f2.ftran(b)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("trial %d: ftran not bit-identical across factorizations", trial)
			}
		}
	}
}
