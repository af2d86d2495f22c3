package milp

import (
	"cmp"
	"fmt"
	"slices"
)

// This file implements the sparse linear algebra under the revised simplex:
// a sparse LU factorization of the basis matrix (left-looking
// Gilbert–Peierls elimination with partial pivoting) plus a product-form
// eta file for the rank-1 basis updates between refactorizations. Together
// they replace the dense m×m explicit inverse the kernel used to carry:
// FTRAN/BTRAN cost O(nnz(L+U) + nnz(etas)) instead of O(m²), and a pivot
// appends one sparse eta instead of sweeping every row of the inverse.
//
// Determinism is load-bearing (see DESIGN.md §7): every loop below runs in
// a fixed order — columns are factorized in a stable nnz-ascending order
// (a counting sort), elimination reach sets are sorted by a strict total
// order, eta entries are gathered in ascending row order — so the
// floating-point result of every solve is a pure function of the basis and
// the matrix, independent of workers, schedules and map iteration order.

// luEntry is one (index, value) pair of a sparse factor row/column.
type luEntry struct {
	idx int32
	val float64
}

// luFactor is a sparse LU factorization of the basis matrix B with row
// pivoting and a stable fill-reducing column order: for elimination step k,
// prow[k] is the pivot row and pcol[k] the basis position eliminated at
// that step. The elementary row operations are stored column-wise (lops),
// the upper factor both row-wise (for FTRAN back substitution) and
// column-wise (for BTRAN forward substitution), indexed in step space.
type luFactor struct {
	m    int
	prow []int32 // pivot row per step
	pcol []int32 // basis position per step
	// lops[k] holds the step-k multipliers: applying the factorization
	// forward, v[e.idx] -= e.val * v[prow[k]].
	lops [][]luEntry
	// udiag[k] is the pivot value of step k; urows[k] the remaining entries
	// of pivot row prow[k] at steps j > k; ucols[j] the same entries viewed
	// by column (steps k < j).
	udiag []float64
	urows [][]luEntry
	ucols [][]luEntry
	// scratch reused across factorizations and solves.
	rowStep []int32   // row -> elimination step, -1 while not pivotal
	xwork   []float64 // dense accumulator for the left-looking solve
	stack   []int32   // DFS stack for the symbolic reach
	reach   []int32   // reached rows of the current column
	visited []int32   // epoch stamps for the reach DFS
	epoch   int32
	order   []int32 // stable nnz-ascending column order
	nnzCnt  []int32 // counting-sort buckets of the column order
	steps   []float64
}

// reset sizes the factor for m rows and clears it to the state of a
// freshly allocated factor; only the capacity of its arrays (the entry
// lists included) carries over.
func (f *luFactor) reset(m int) {
	f.m = m
	f.prow = zeroed(f.prow, m)
	f.pcol = zeroed(f.pcol, m)
	f.udiag = zeroed(f.udiag, m)
	f.lops = emptyLists(f.lops, m)
	f.urows = emptyLists(f.urows, m)
	f.ucols = emptyLists(f.ucols, m)
	f.rowStep = zeroed(f.rowStep, m)
	f.xwork = zeroed(f.xwork, m)
	f.stack = f.stack[:0]
	f.reach = f.reach[:0]
	f.visited = zeroed(f.visited, m)
	f.epoch = 0
	f.order = zeroed(f.order, m)
	f.nnzCnt = f.nnzCnt[:0]
	f.steps = zeroed(f.steps, m)
}

// emptyLists returns ls resized to m empty entry lists, keeping the
// capacity of every list it already had.
func emptyLists(ls [][]luEntry, m int) [][]luEntry {
	if cap(ls) < m {
		ls = append(ls[:cap(ls)], make([][]luEntry, m-cap(ls))...)
	}
	ls = ls[:m]
	for k := range ls {
		ls[k] = ls[k][:0]
	}
	return ls
}

// nnz returns the stored entry count of the factors (multipliers, diagonal
// and off-diagonal U entries), the fill metric reported by KernelStats.
func (f *luFactor) nnz() int {
	n := len(f.udiag)
	for k := range f.lops {
		n += len(f.lops[k]) + len(f.urows[k])
	}
	return n
}

// factorize (re)builds the factorization of the basis matrix whose column
// at row-position i is cols[basis[i]]. It returns an error when the basis
// is numerically singular (no pivot of magnitude >= pivotTol in some
// column), in which case the factor must not be used.
func (f *luFactor) factorize(cols []sparseCol, basis []int) error {
	m := f.m
	if len(f.prow) != m {
		f.reset(m)
	}
	for k := 0; k < m; k++ {
		f.lops[k] = f.lops[k][:0]
		f.urows[k] = f.urows[k][:0]
		f.ucols[k] = f.ucols[k][:0]
		f.rowStep[k] = -1
		f.xwork[k] = 0
	}

	// Stable fill-reducing order: factorize sparse columns first. Slack and
	// artificial singletons then pivot without creating any fill, which is
	// the dominant structure of the LET-DMA bases. A counting sort by
	// column nnz that keeps position order within a count is exactly the
	// stable sort's order.
	maxNnz := 0
	for _, j := range basis {
		maxNnz = max(maxNnz, len(cols[j].rows))
	}
	cnt := zeroed(f.nnzCnt, maxNnz+2)
	f.nnzCnt = cnt
	for _, j := range basis {
		cnt[len(cols[j].rows)+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	for pos, j := range basis {
		nz := len(cols[j].rows)
		f.order[cnt[nz]] = int32(pos)
		cnt[nz]++
	}

	for t := 0; t < m; t++ {
		pos := f.order[t]
		col := &cols[basis[pos]]

		// Symbolic: reach of the column's pattern through the elimination
		// graph (row pivotal at step k propagates to the rows of lops[k]).
		f.epoch++
		f.reach = f.reach[:0]
		f.stack = f.stack[:0]
		for _, r := range col.rows {
			if f.visited[r] != f.epoch {
				f.visited[r] = f.epoch
				f.stack = append(f.stack, int32(r))
			}
		}
		for len(f.stack) > 0 {
			r := f.stack[len(f.stack)-1]
			f.stack = f.stack[:len(f.stack)-1]
			f.reach = append(f.reach, r)
			if k := f.rowStep[r]; k >= 0 {
				for _, e := range f.lops[k] {
					if f.visited[e.idx] != f.epoch {
						f.visited[e.idx] = f.epoch
						f.stack = append(f.stack, e.idx)
					}
				}
			}
		}
		// Ascending step order is a valid topological order of the
		// elimination dependencies, and sorting keeps the numeric pass —
		// and therefore its floating-point rounding — deterministic.
		// Rows are distinct and pivotal steps unique, so this is a strict
		// total order and any sorting algorithm yields the same sequence.
		slices.SortFunc(f.reach, f.reachOrder)

		// Numeric: scatter the column, then apply the reached eliminations.
		for i, r := range col.rows {
			f.xwork[r] = col.vals[i]
		}
		npStart := len(f.reach)
		for i, r := range f.reach {
			k := f.rowStep[r]
			if k < 0 {
				npStart = i
				break
			}
			pv := f.xwork[r]
			if pv == 0 {
				continue
			}
			for _, e := range f.lops[k] {
				f.xwork[e.idx] -= e.val * pv
			}
		}

		// Partial pivoting over the non-pivotal rows (already in ascending
		// row order): first row of maximal magnitude.
		pivRow, pivVal := int32(-1), 0.0
		for _, r := range f.reach[npStart:] {
			if v := abs(f.xwork[r]); v > pivVal {
				pivRow, pivVal = r, v
			}
		}
		if pivVal < pivotTol {
			for _, r := range f.reach {
				f.xwork[r] = 0
			}
			return fmt.Errorf("milp: singular basis")
		}
		piv := f.xwork[pivRow]

		// Store the step: U entries against earlier steps, multipliers for
		// the remaining non-pivotal rows.
		for _, r := range f.reach[:npStart] {
			if v := f.xwork[r]; v != 0 {
				k := f.rowStep[r]
				f.urows[k] = append(f.urows[k], luEntry{int32(t), v})
				f.ucols[t] = append(f.ucols[t], luEntry{k, v})
			}
		}
		for _, r := range f.reach[npStart:] {
			if r == pivRow {
				continue
			}
			if v := f.xwork[r]; v != 0 {
				f.lops[t] = append(f.lops[t], luEntry{r, v / piv})
			}
		}
		f.udiag[t] = piv
		f.prow[t] = pivRow
		f.pcol[t] = pos
		f.rowStep[pivRow] = int32(t)
		for _, r := range f.reach {
			f.xwork[r] = 0
		}
	}
	return nil
}

// reachOrder orders reached rows for the numeric pass: pivotal rows by
// elimination step, then non-pivotal rows by row index.
func (f *luFactor) reachOrder(ra, rb int32) int {
	ka, kb := f.rowStep[ra], f.rowStep[rb]
	switch {
	case ka >= 0 && kb >= 0:
		return cmp.Compare(ka, kb)
	case ka >= 0:
		return -1
	case kb >= 0:
		return 1
	default:
		return cmp.Compare(ra, rb)
	}
}

// ftran solves B x = v in place (v indexed by row on entry, by basis
// position on exit).
func (f *luFactor) ftran(v []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		pv := v[f.prow[k]]
		if pv == 0 {
			continue
		}
		for _, e := range f.lops[k] {
			v[e.idx] -= e.val * pv
		}
	}
	xs := f.steps[:m]
	for k := m - 1; k >= 0; k-- {
		s := v[f.prow[k]]
		for _, e := range f.urows[k] {
			if x := xs[e.idx]; x != 0 {
				s -= e.val * x
			}
		}
		xs[k] = s / f.udiag[k]
	}
	for k := 0; k < m; k++ {
		v[f.pcol[k]] = xs[k]
	}
}

// btran solves Bᵀ y = v in place (v indexed by basis position on entry, by
// row on exit).
func (f *luFactor) btran(v []float64) {
	m := f.m
	ts := f.steps[:m]
	for j := 0; j < m; j++ {
		s := v[f.pcol[j]]
		for _, e := range f.ucols[j] {
			if t := ts[e.idx]; t != 0 {
				s -= e.val * t
			}
		}
		ts[j] = s / f.udiag[j]
	}
	for j := 0; j < m; j++ {
		v[f.prow[j]] = ts[j]
	}
	// Rows are a permutation of positions, so the scatter above fills every
	// slot; now apply the transposed eliminations in reverse step order.
	for k := m - 1; k >= 0; k-- {
		acc := v[f.prow[k]]
		for _, e := range f.lops[k] {
			acc -= e.val * v[e.idx]
		}
		v[f.prow[k]] = acc
	}
}

// eta is one product-form update: the basis column at row-position r was
// replaced, and w = B⁻¹ a_enter (taken before the update) describes the
// elementary matrix E = I + (w - e_r) e_rᵀ with B_new = B_old · E.
type eta struct {
	r   int32
	pv  float64 // w[r]
	ent []luEntry
}

// basisRep is the simplex kernel's working basis representation: the LU
// factors plus the eta file accumulated since the last refactorization.
type basisRep struct {
	lu   luFactor
	etas []eta
	// etaPool recycles eta entry slices across refactorizations and solves.
	etaPool [][]luEntry
	stats   *KernelStats // the owning workspace's counters
}

// reset empties the representation for a solve with m rows that counts
// into stats: no factors, no etas, every eta entry slice back in the pool.
func (b *basisRep) reset(m int, stats *KernelStats) {
	b.recycleEtas()
	b.lu.reset(m)
	b.stats = stats
}

// recycleEtas discards the eta file, returning its entry slices to the pool.
func (b *basisRep) recycleEtas() {
	for _, e := range b.etas {
		b.etaPool = append(b.etaPool, e.ent[:0])
	}
	b.etas = b.etas[:0]
}

// factorize rebuilds the LU factors from the current basis and discards the
// eta file. A singular basis is counted and reported; the factor must not
// be used after it.
func (b *basisRep) factorize(cols []sparseCol, basis []int) error {
	b.recycleEtas()
	if err := b.lu.factorize(cols, basis); err != nil {
		b.stats.SingularRefactors++
		return err
	}
	b.stats.Refactorizations++
	b.stats.LuNnz += b.lu.nnz()
	return nil
}

// update appends the product-form eta for a pivot at row-position r with
// FTRAN direction w. The caller guarantees |w[r]| >= pivotTol.
func (b *basisRep) update(r int, w []float64) {
	var ent []luEntry
	if n := len(b.etaPool); n > 0 {
		ent = b.etaPool[n-1]
		b.etaPool = b.etaPool[:n-1]
	}
	for i, v := range w {
		if v != 0 && i != r {
			ent = append(ent, luEntry{int32(i), v})
		}
	}
	b.etas = append(b.etas, eta{r: int32(r), pv: w[r], ent: ent})
	b.stats.EtaUpdates++
	b.stats.EtaNnz += len(ent) + 1
}

// ftran solves B x = v in place through the factors and the eta file.
func (b *basisRep) ftran(v []float64) {
	b.lu.ftran(v)
	for i := range b.etas {
		e := &b.etas[i]
		xr := v[e.r] / e.pv
		if xr != 0 {
			for _, en := range e.ent {
				v[en.idx] -= en.val * xr
			}
		}
		v[e.r] = xr
	}
	b.stats.FtranSolves++
	b.stats.FtranNnz += nnzOf(v)
}

// btran solves Bᵀ y = v in place through the eta file (reverse order) and
// the factors.
func (b *basisRep) btran(v []float64) {
	for i := len(b.etas) - 1; i >= 0; i-- {
		e := &b.etas[i]
		s := v[e.r]
		for _, en := range e.ent {
			s -= en.val * v[en.idx]
		}
		v[e.r] = s / e.pv
	}
	b.lu.btran(v)
	b.stats.BtranSolves++
	b.stats.BtranNnz += nnzOf(v)
}

func nnzOf(v []float64) int {
	n := 0
	for _, x := range v {
		if x != 0 {
			n++
		}
	}
	return n
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
