package core

import (
	"fmt"
	"math"

	"ratiorules/internal/matrix"
	"ratiorules/internal/svd"
)

// Every solve against the rule matrix V runs through this file. The
// paper's Sec. 4.4 solves V′·x = b′, where V′ holds the rows of V at the
// known cells. V has orthonormal columns, so those solves have closed
// forms. Let b be a centred row and p = Vᵗb its coordinates on the kEff
// rules the solve keeps.
//
//   - One hole j (GE₁ and the cell outlier probes): the cell minus its
//     fill is the leave-one-out residual r_j / (1 − h_j), where
//     r = b − V·p and h_j = ‖V_j‖² is attribute j's leverage. All M
//     single-hole errors of a row cost one projection.
//   - A hole set H with known set K: with the hole cells of b zeroed, the
//     fills are (I − V_H·V_Hᵗ)⁻¹·V_H·p, an h×h system, or equivalently
//     V_H·(V_KᵗV_K)⁻¹·p, a kEff×kEff one. Both matrices are SPD with the
//     same smallest eigenvalue λ_min, so the solve factors the smaller.
//
// The closed forms solve normal equations, which square cond(V′). Below
// fillTol they hand over to the SVD pseudo-inverse of V′ (Eqs. 7–9, the
// paper's Moore–Penrose step), which is also the tests' reference.

// fillTol is the smallest λ_min (or 1 − h_j for one hole) the closed
// forms accept. It keeps fills within 1e-9 of the pseudo-inverse on the
// nearly square V′ of 80–90-hole Quest fills, which a positive-pivot
// check alone does not (TestFillQuestManyHolesMatchesSVD).
const fillTol = 1e-5

// singleHoleK is the number of rules a single-hole solve keeps: all k,
// or the first M−1 when k = M (Case 3).
func singleHoleK(m, k int) int { return max(0, min(k, m-1)) }

// leverages returns h_j = Σ V[j][c]² over the rules a single-hole solve
// keeps.
func leverages(v *matrix.Dense) []float64 {
	m, k := v.Dims()
	k1 := singleHoleK(m, k)
	lev := make([]float64, m)
	for j := range lev {
		for _, x := range v.RawRow(j)[:k1] {
			lev[j] += x * x
		}
	}
	return lev
}

// vrow returns the first n coefficients of attribute j across the rules.
func (r *Rules) vrow(j, n int) []float64 { return r.v.RawRow(j)[:n] }

// coords is the one projection every solve starts from: it centres row
// into b, zeroing the cells flagged in hole (nil flags none), and writes
// the coordinates of b on the first len(p) rules into p.
func (r *Rules) coords(row []float64, hole []bool, b, p []float64) {
	clear(p)
	for j, x := range row {
		if hole != nil && hole[j] {
			b[j] = 0
			continue
		}
		bj := x - r.means[j]
		b[j] = bj
		for c, v := range r.vrow(j, len(p)) {
			p[c] += v * bj
		}
	}
}

// dot is the inner product of equally long slices.
func dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// fillHoles writes the reconstruction of the holes of row into out,
// whose other cells the caller has set. holes and its mask isHole come
// validated from holeMask.
func (r *Rules) fillHoles(row []float64, holes []int, isHole []bool, out []float64) error {
	m, h := r.M(), len(holes)
	if h == 0 {
		return nil
	}
	kEff := min(r.K(), m-h)
	if kEff == 0 {
		// No rules, or nothing known: the column averages.
		for _, j := range holes {
			out[j] = r.means[j]
		}
		return nil
	}
	n := min(h, kEff)
	buf := make([]float64, m+kEff+n*n+2*n)
	b, buf := buf[:m], buf[m:]
	p, buf := buf[:kEff], buf[kEff:]
	a, buf := buf[:n*n], buf[n*n:]
	x, work := buf[:n], buf[n:]
	r.coords(row, isHole, b, p)
	if h <= kEff {
		// (I − V_H·V_Hᵗ)·y = V_H·p; the fills are y.
		for i, ji := range holes {
			vi := r.vrow(ji, kEff)
			for l, jl := range holes[:i+1] {
				a[i*n+l] = -dot(vi, r.vrow(jl, kEff))
			}
			a[i*n+i]++
			x[i] = dot(vi, p)
		}
	} else {
		// (V_KᵗV_K)·xc = p; the fills are V_H·xc.
		for j, hole := range isHole {
			if hole {
				continue
			}
			vj := r.vrow(j, kEff)
			for c, vc := range vj {
				for d, vd := range vj[:c+1] {
					a[c*n+d] += vc * vd
				}
			}
		}
		copy(x, p)
	}
	if !cholSolve(a, n, x, work) {
		return r.fillSVD(b, holes, isHole, kEff, out)
	}
	for i, j := range holes {
		if h > kEff {
			out[j] = dot(r.vrow(j, kEff), x) + r.means[j]
		} else {
			out[j] = x[i] + r.means[j]
		}
	}
	return nil
}

// cholSolve factors the SPD matrix whose lower triangle a holds (n×n,
// row-major) as L·Lᵗ in place and overwrites x with the solution of
// a·y = x. It reports false, leaving x undefined, when λ_min(a) may be
// below fillTol: a non-positive pivot, or tr(a⁻¹) = ‖L⁻¹‖²_F ≥ 1/λ_min
// above 1/fillTol. work needs n entries.
func cholSolve(a []float64, n int, x, work []float64) bool {
	for i := 0; i < n; i++ {
		li := a[i*n : i*n+i+1]
		for l := 0; l <= i; l++ {
			ll := a[l*n : l*n+l]
			s := li[l] - dot(li[:l], ll)
			if l < i {
				li[l] = s / a[l*n+l]
				continue
			}
			if !(s > 0) {
				return false
			}
			li[i] = math.Sqrt(s)
		}
	}
	// tr(a⁻¹) column by column: L·w = e_c is zero above row c.
	var tr float64
	for c := 0; c < n; c++ {
		for i := c; i < n; i++ {
			s := 0.0
			if i == c {
				s = 1
			}
			s -= dot(a[i*n+c:i*n+i], work[c:i])
			work[i] = s / a[i*n+i]
			tr += work[i] * work[i]
		}
	}
	if tr > 1/fillTol {
		return false
	}
	for i := 0; i < n; i++ {
		x[i] = (x[i] - dot(a[i*n:i*n+i], x[:i])) / a[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for l := i + 1; l < n; l++ {
			s -= a[l*n+i] * x[l]
		}
		x[i] = s / a[i*n+i]
	}
	return true
}

// pinvFill is the fallback for one hole set: the Moore–Penrose
// pseudo-inverse of V′ (Eqs. 7–9), which also covers a rank-deficient
// V′. It is safe for concurrent use.
type pinvFill struct {
	holes  []int
	isHole []bool
	pinv   *matrix.Dense // kEff × known
}

// newPinvFill factors V′ for a validated hole set, keeping kEff rules.
func (r *Rules) newPinvFill(holes []int, isHole []bool, kEff int) (*pinvFill, error) {
	vPrime := make([][]float64, 0, len(isHole))
	for j, hole := range isHole {
		if !hole {
			vPrime = append(vPrime, r.vrow(j, kEff))
		}
	}
	a, err := matrix.FromRows(vPrime)
	if err != nil {
		return nil, err
	}
	pinv, err := svd.PseudoInverse(a)
	if err != nil {
		return nil, fmt.Errorf("core: pseudo-inverse solve: %w", err)
	}
	return &pinvFill{holes: holes, isHole: isHole, pinv: pinv}, nil
}

// apply writes the centred fill of every hole into out, from the centred
// row b; b's hole cells are ignored.
func (f *pinvFill) apply(r *Rules, b, out []float64) {
	known := make([]float64, 0, len(b))
	for j, v := range b {
		if !f.isHole[j] {
			known = append(known, v)
		}
	}
	xc := make([]float64, f.pinv.Rows())
	for c := range xc {
		xc[c] = dot(f.pinv.RawRow(c), known)
	}
	for _, j := range f.holes {
		out[j] = dot(r.vrow(j, len(xc)), xc)
	}
}

// fillSVD fills the holes of the centred row b through the
// pseudo-inverse of V′ and adds the means back.
func (r *Rules) fillSVD(b []float64, holes []int, isHole []bool, kEff int, out []float64) error {
	f, err := r.newPinvFill(holes, isHole, kEff)
	if err != nil {
		return err
	}
	f.apply(r, b, out)
	for _, j := range holes {
		out[j] += r.means[j]
	}
	return nil
}

// looSolver computes the M single-hole reconstruction errors of rows
// (GE₁, cell outliers). An attribute whose 1 − h_j is below fillTol takes
// the pseudo-inverse, factored once per solver. It is safe for
// concurrent use; each goroutine brings its own looScratch.
type looSolver struct {
	r        *Rules
	k1       int
	fallback []*pinvFill // nil, or one entry per attribute (nil = closed form)
}

// newLOO prepares the single-hole solves of r.
func (r *Rules) newLOO() (*looSolver, error) {
	m := r.M()
	s := &looSolver{r: r, k1: singleHoleK(m, r.K())}
	for j, h := range r.lev {
		if 1-h >= fillTol {
			continue
		}
		if s.fallback == nil {
			s.fallback = make([]*pinvFill, m)
		}
		isHole := make([]bool, m)
		isHole[j] = true
		f, err := r.newPinvFill([]int{j}, isHole, s.k1)
		if err != nil {
			return nil, fmt.Errorf("core: single-hole solve for attribute %d: %w", j, err)
		}
		s.fallback[j] = f
	}
	return s, nil
}

// looScratch is one goroutine's scratch for looSolver.errs.
type looScratch struct{ b, p, d []float64 }

func (s *looSolver) scratch() *looScratch {
	m := s.r.M()
	return &looScratch{b: make([]float64, m), p: make([]float64, s.k1), d: make([]float64, m)}
}

// errs returns, in sc.d, each cell of row minus its reconstruction from
// the rest of the row.
func (s *looSolver) errs(row []float64, sc *looScratch) []float64 {
	r := s.r
	r.coords(row, nil, sc.b, sc.p)
	for j, bj := range sc.b {
		if s.fallback != nil && s.fallback[j] != nil {
			s.fallback[j].apply(r, sc.b, sc.d)
			sc.d[j] = bj - sc.d[j]
			continue
		}
		sc.d[j] = (bj - dot(r.vrow(j, s.k1), sc.p)) / (1 - r.lev[j])
	}
	return sc.d
}
