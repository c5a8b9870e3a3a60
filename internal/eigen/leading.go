package eigen

import (
	"fmt"
	"math"

	"ratiorules/internal/matrix"
)

// SymEigLeading decomposes the symmetric matrix a like SymEig, but
// computes eigenvectors for the leading k eigenvalues only, where the
// caller picks k = pick(values) from every eigenvalue in descending
// order (the Ratio Rules cutoff reads the whole spectrum but keeps k
// vectors). The input is not modified.
//
// The eigenvalues are bit-identical to SymEig's: the Householder
// reduction and the QL sweeps are SymEig's own, run without
// accumulating the transformations. Each kept vector comes from inverse
// iteration on the tridiagonal form, split into blocks at the
// off-diagonals the QL sweeps treat as zero and re-orthogonalized
// against the block's earlier kept vectors, and is then carried back
// through the stored reflectors in O(M²·k). Should a vector miss its
// residual bound, the vectors are taken from SymEig instead.
//
// The returned Values is the slice pick received, so pick may adjust it
// (clamping round-off negatives, say); the vectors follow the
// eigenvalues as computed. Vectors is n×k with the same sign convention
// as SymEig.
func SymEigLeading(a *matrix.Dense, pick func(values []float64) int) (*System, error) {
	sys, _, err := symEigLeading(a, pick, residualBound)
	return sys, err
}

// residualBound is the residual ‖T·v − λ·v‖ a kept vector must meet, in
// units of nε times the norm of its block of T: an eigenvalue from the
// QL sweeps is exact for a matrix within about nε‖T‖ of T, and no
// vector does better against it.
const residualBound = 8

// symEigLeading is SymEigLeading with the residual bound as a
// parameter; it also reports whether the vectors came from SymEig.
func symEigLeading(a *matrix.Dense, pick func(values []float64) int, bound float64) (*System, bool, error) {
	if err := checkSymmetric(a); err != nil {
		return nil, false, err
	}
	n, _ := a.Dims()
	z := append([]float64(nil), a.RawData()...)
	d := make([]float64, n) // diagonal of T, then its eigenvalues
	e := make([]float64, n) // sub-diagonal of T
	h := make([]float64, n) // reflector scalars
	if n > 0 {
		householder(z, h, e)
		for i := range d {
			d[i] = z[i*n+i]
		}
		e[0] = 0
	}
	// tql2 overwrites d and e; inverse iteration needs T itself, with
	// off[i] coupling i and i+1 as in tql2's shifted e.
	diag := append([]float64(nil), d...)
	off := make([]float64, max(n-1, 0))
	copy(off, e[min(1, n):])
	start := splitBlocks(diag, off)
	if err := tql2(nil, d, e); err != nil {
		return nil, false, err
	}
	idx := descending(d)
	sys := &System{Values: make([]float64, n)}
	for o, in := range idx {
		sys.Values[o] = d[in]
	}
	k := pick(sys.Values)
	if k < 0 || k > n {
		return nil, false, fmt.Errorf("eigen: picked %d eigenvectors of %d", k, n)
	}
	vecs := make([]float64, k*n) // row c: the eigenvector for Values[c]
	if !tridiagVectors(diag, off, start, d, idx[:k], vecs, bound) {
		full, err := SymEig(a)
		if err != nil {
			return nil, true, err
		}
		cols := make([]int, k)
		for i := range cols {
			cols[i] = i
		}
		sys.Vectors = full.Vectors.SelectCols(cols)
		return sys, true, nil
	}
	backTransform(z, h, vecs)
	sys.Vectors = matrix.NewDense(n, k)
	out := sys.Vectors.RawData()
	for c := 0; c < k; c++ {
		vec := vecs[c*n : (c+1)*n]
		canonicalizeSign(vec)
		for i, x := range vec {
			out[i*k+c] = x
		}
	}
	return sys, false, nil
}

// splitBlocks splits the symmetric tridiagonal matrix with diagonal diag
// and off-diagonal off (off[i] couples i and i+1) where tql2 would first
// find an off-diagonal negligible, and returns, for each index, the
// first index of its block. tql2 tests an off-diagonal against these
// same values until a sweep ending there zeroes it, so it never sweeps
// across such a split.
func splitBlocks(diag, off []float64) []int {
	start := make([]int, len(diag))
	for i := 1; i < len(diag); i++ {
		start[i] = start[i-1]
		if negligible(off[i-1], diag[i-1], diag[i]) {
			start[i] = i
		}
	}
	return start
}

// tridiagVectors writes to the rows of vecs unit eigenvectors of the
// tridiagonal matrix (diag, off, split as start records) for the
// eigenvalues w[idx[c]], which tql2 left at index idx[c], so that
// index's block holds each. It reports false when a vector's residual
// exceeds bound·nε times its block's norm.
//
// Per block it follows LAPACK's dstein: inverse iteration with a
// partially pivoted LU of the block less the shift, tiny pivots
// perturbed, from a pseudo-random start, the shifts of equal or close
// eigenvalues kept 10ε apart. Every iterate is orthogonalized, twice,
// against all of the block's earlier vectors rather than those of its
// cluster only: with k ≤ n that costs O(k²·n), below the
// back-transformation. The work is scaled by the block's 1-norm, so the
// bounds are relative to it.
func tridiagVectors(diag, off []float64, start []int, w []float64, idx []int, vecs []float64, bound float64) bool {
	n := len(diag)
	bound *= float64(n) * machEps
	lu := newTridiagLU(n)
	x := make([]float64, n)
	shifts := make([]float64, len(idx))
	prev := make([]int, 0, len(idx))
	seed := uint64(1)
	for c, in := range idx {
		vec := vecs[c*n : (c+1)*n]
		b0 := start[in]
		b1 := in + 1
		for b1 < n && start[b1] == b0 {
			b1++
		}
		if b1-b0 == 1 {
			vec[b0] = 1
			continue
		}
		var norm float64
		for i := b0; i < b1; i++ {
			s := math.Abs(diag[i])
			if i > b0 {
				s += math.Abs(off[i-1])
			}
			if i+1 < b1 {
				s += math.Abs(off[i])
			}
			norm = max(norm, s)
		}
		// The block's earlier kept vectors; a shift within 10ε of the
		// latest one's moves 10ε below it.
		prev = prev[:0]
		shift := w[in] / norm
		for p := 0; p < c; p++ {
			if start[idx[p]] == b0 {
				prev = append(prev, p)
				shift = min(shift, shifts[p]-10*machEps)
			}
		}
		shifts[c] = shift
		lu.factor(diag[b0:b1], off[b0:b1-1], norm, shift)
		y := x[b0:b1]
		for i := range y {
			seed = seed*6364136223846793005 + 1442695040888963407
			y[i] = float64(seed>>11)/(1<<52) - 1
		}
		// Iterate until the growth shows a residual within the bound,
		// then once more; dstein allows five steps.
		for it, done := 0, 0; it < 5 && done < 2; it++ {
			scale := 1 / matrix.Norm2(y)
			for i := range y {
				y[i] *= scale
			}
			lu.solve(y)
			// Twice is enough (Kahan–Parlett): where the solve left y
			// mostly along earlier vectors, one pass keeps too much of
			// them.
			for range 2 {
				for _, p := range prev {
					q := vecs[p*n+b0 : p*n+b1]
					matrix.AxpyInto(y, -matrix.Dot(y, q), q, y)
				}
			}
			if matrix.Norm2(y)*bound >= 2 {
				done++
			}
		}
		s := matrix.Norm2(y)
		if !(s > 0) || math.IsInf(s, 0) {
			return false
		}
		for i := range y {
			vec[b0+i] = y[i] / s
		}
		// ‖T·v − λ·v‖ over the block, in units of its norm.
		lambda := w[in]
		var r2 float64
		for i := b0; i < b1; i++ {
			r := (diag[i] - lambda) * vec[i]
			if i > b0 {
				r += off[i-1] * vec[i-1]
			}
			if i+1 < b1 {
				r += off[i] * vec[i+1]
			}
			r /= norm
			r2 += r * r
		}
		if !(math.Sqrt(r2) <= bound) {
			return false
		}
	}
	return true
}

// tridiagLU is a partially pivoted LU factorization of a symmetric
// tridiagonal block less a shift, scaled by the block's norm: U has the
// diagonal u0 and two super-diagonals u1, u2; row i+1 was swapped with
// row i where swap[i], and mult[i] eliminated it.
type tridiagLU struct {
	u0, u1, u2, mult []float64
	swap             []bool
}

func newTridiagLU(n int) *tridiagLU {
	return &tridiagLU{
		u0: make([]float64, n), u1: make([]float64, n), u2: make([]float64, n),
		mult: make([]float64, n), swap: make([]bool, n),
	}
}

// factor factorizes (T − shift·norm·I)/norm for the block T with
// diagonal diag and off-diagonal off, then raises pivots below ε in
// magnitude to ±ε, as dlagts perturbs them for inverse iteration.
func (f *tridiagLU) factor(diag, off []float64, norm, shift float64) {
	m := len(diag)
	u0, u1, u2 := f.u0[:m], f.u1[:m], f.u2[:m]
	for i := range u0 {
		u0[i] = diag[i]/norm - shift
		u1[i], u2[i] = 0, 0
		if i < m-1 {
			u1[i] = off[i] / norm
		}
	}
	for i := 0; i < m-1; i++ {
		sub := off[i] / norm
		if math.Abs(u0[i]) >= math.Abs(sub) {
			f.swap[i] = false
			f.mult[i] = 0
			if u0[i] != 0 {
				f.mult[i] = sub / u0[i]
			}
			u0[i+1] -= f.mult[i] * u1[i]
			continue
		}
		// Row i+1 becomes the pivot row.
		f.swap[i] = true
		f.mult[i] = u0[i] / sub
		u0[i], u1[i], u0[i+1] = sub, u0[i+1], u1[i]-f.mult[i]*u0[i+1]
		if i < m-2 {
			u2[i] = u1[i+1]
			u1[i+1] = -f.mult[i] * u1[i+1]
		}
	}
	for i, u := range u0 {
		if math.Abs(u) < machEps {
			u0[i] = math.Copysign(machEps, u)
		}
	}
}

// solve overwrites y with the solution of the factorized system.
func (f *tridiagLU) solve(y []float64) {
	m := len(y)
	for i := 0; i < m-1; i++ {
		if f.swap[i] {
			y[i], y[i+1] = y[i+1], y[i]
		}
		y[i+1] -= f.mult[i] * y[i]
	}
	for i := m - 1; i >= 0; i-- {
		s := y[i]
		if i+1 < m {
			s -= f.u1[i] * y[i+1]
		}
		if i+2 < m {
			s -= f.u2[i] * y[i+2]
		}
		y[i] = s / f.u0[i]
	}
}

// backTransform maps each row of vecs, an eigenvector of the tridiagonal
// form, to one of A by applying P_1, P_2, …, P_{n-1} in turn (householder
// documents the storage): x ← x − (uᵗx)·u/h for each reflector.
func backTransform(z, h, vecs []float64) {
	n := len(h)
	if len(vecs) == 0 {
		return
	}
	u := make([]float64, n)
	w := make([]float64, n)
	for l := 1; l < n; l++ {
		if h[l] == 0 {
			continue
		}
		for j := 0; j < l; j++ {
			u[j] = z[j*n+l]
			w[j] = u[j] / h[l]
		}
		for c := 0; c < len(vecs); c += n {
			x := vecs[c : c+l]
			g := matrix.Dot(u[:l], x)
			for j := range x {
				x[j] -= g * w[j]
			}
		}
	}
}
