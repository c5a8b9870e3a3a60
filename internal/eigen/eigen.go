// Package eigen computes eigenvalues and eigenvectors of real symmetric
// matrices, the "off-the-shelf eigensystem package" step of the Ratio Rules
// pipeline (Fig. 2(b) of Korn et al., VLDB 1998).
//
// Three solvers are provided:
//
//   - SymEig: Householder tridiagonalization followed by the implicit-shift
//     QL iteration (the EISPACK tred2/tql2 pair). The full solve, O(M³)
//     with a small constant, and robust for the covariance matrices the
//     miner produces; SymEigLeading's fallback.
//   - SymEigLeading: SymEig's eigenvalues bit for bit, but eigenvectors
//     only for the leading k the caller picks from them, by inverse
//     iteration on the tridiagonal form; the miner's solve.
//   - Jacobi: classical cyclic Jacobi rotations. Slower but simple and very
//     accurate; the independent oracle the tests check SymEig against.
//
// All return eigenvalues sorted in descending order together with the
// matching orthonormal eigenvectors, which is the order the Ratio Rules
// cutoff (Eq. 1 of the paper) consumes them in.
package eigen

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ratiorules/internal/matrix"
)

// ErrNotSymmetric is returned when the input matrix is not square and
// symmetric within SymmetryTol.
var ErrNotSymmetric = errors.New("eigen: matrix is not symmetric")

// ErrNoConvergence is returned when an iterative solver exceeds its
// iteration budget without reducing off-diagonal mass to round-off.
var ErrNoConvergence = errors.New("eigen: iteration did not converge")

// SymmetryTol is the absolute tolerance used to validate input symmetry,
// relative to the largest matrix entry.
const SymmetryTol = 1e-8

// System is an eigendecomposition of a symmetric matrix A = V·diag(λ)·Vᵗ.
type System struct {
	// Values holds the eigenvalues in descending order.
	Values []float64
	// Vectors holds the corresponding eigenvectors as columns: column j of
	// Vectors is the unit eigenvector for Values[j].
	Vectors *matrix.Dense
}

// SymEig decomposes the symmetric matrix a using Householder reduction and
// implicit-shift QL iteration. The input is not modified.
func SymEig(a *matrix.Dense) (*System, error) {
	if err := checkSymmetric(a); err != nil {
		return nil, err
	}
	n, _ := a.Dims()
	if n == 0 {
		return &System{Values: nil, Vectors: matrix.NewDense(0, 0)}, nil
	}
	// Work on a copy: tred2 runs in place. tql2 then takes the
	// accumulated transformation transposed, one eigenvector per row.
	z := append([]float64(nil), a.RawData()...)
	d := make([]float64, n) // diagonal of the tridiagonal form
	e := make([]float64, n) // sub-diagonal
	tred2(z, d, e)
	transpose(z, n)
	if err := tql2(z, d, e); err != nil {
		return nil, err
	}
	return sortedSystem(d, z), nil
}

// Jacobi decomposes the symmetric matrix a using cyclic Jacobi rotations.
// The input is not modified. It is O(M³) per sweep with typically 6-10
// sweeps; prefer SymEig for large matrices.
func Jacobi(a *matrix.Dense) (*System, error) {
	if err := checkSymmetric(a); err != nil {
		return nil, err
	}
	n, _ := a.Dims()
	if n == 0 {
		return &System{Values: nil, Vectors: matrix.NewDense(0, 0)}, nil
	}
	w := a.Clone()
	v := matrix.Identity(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagonalNorm(w)
		if off <= 1e-14*(1+w.MaxAbs()) {
			d := make([]float64, n)
			for i := 0; i < n; i++ {
				d[i] = w.At(i, i)
			}
			return sortedSystem(d, v.T().RawData()), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				jacobiRotate(w, v, p, q)
			}
		}
	}
	return nil, fmt.Errorf("eigen: Jacobi exceeded %d sweeps: %w", 64, ErrNoConvergence)
}

// checkSymmetric validates that a is square and symmetric.
func checkSymmetric(a *matrix.Dense) error {
	r, c := a.Dims()
	if r != c {
		return fmt.Errorf("eigen: %d×%d matrix is not square: %w", r, c, ErrNotSymmetric)
	}
	tol := SymmetryTol * (1 + a.MaxAbs())
	if !a.IsSymmetric(tol) {
		return ErrNotSymmetric
	}
	return nil
}

// offDiagonalNorm returns the Frobenius norm of the strictly upper triangle.
func offDiagonalNorm(a *matrix.Dense) float64 {
	n, _ := a.Dims()
	var s float64
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			v := a.At(i, j)
			s += v * v
		}
	}
	return math.Sqrt(2 * s)
}

// jacobiRotate zeroes w[p][q] with a Givens rotation, accumulating into v.
func jacobiRotate(w, v *matrix.Dense, p, q int) {
	apq := w.At(p, q)
	if apq == 0 {
		return
	}
	app, aqq := w.At(p, p), w.At(q, q)
	theta := (aqq - app) / (2 * apq)
	// Numerically stable tangent of the rotation angle.
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	tau := s / (1 + c)

	n, _ := w.Dims()
	w.Set(p, p, app-t*apq)
	w.Set(q, q, aqq+t*apq)
	w.Set(p, q, 0)
	w.Set(q, p, 0)
	for i := 0; i < n; i++ {
		if i != p && i != q {
			aip, aiq := w.At(i, p), w.At(i, q)
			w.Set(i, p, aip-s*(aiq+tau*aip))
			w.Set(p, i, w.At(i, p))
			w.Set(i, q, aiq+s*(aip-tau*aiq))
			w.Set(q, i, w.At(i, q))
		}
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, vip-s*(viq+tau*vip))
		v.Set(i, q, viq+s*(vip-tau*viq))
	}
}

// sortedSystem bundles eigenvalues d and the eigenvectors stored as the
// rows of vt (n×n row-major, row i belonging to d[i]) into a System
// sorted by descending eigenvalue, normalizing vector signs so the
// component of largest magnitude is positive (a stable, presentation-
// friendly convention for Ratio Rules). It flips signs in vt in place.
func sortedSystem(d, vt []float64) *System {
	n := len(d)
	idx := descending(d)
	values := make([]float64, n)
	vectors := matrix.NewDense(n, n)
	out := vectors.RawData()
	for o, in := range idx {
		values[o] = d[in]
		vec := vt[in*n : (in+1)*n]
		canonicalizeSign(vec)
		for i, x := range vec {
			out[i*n+o] = x
		}
	}
	return &System{Values: values, Vectors: vectors}
}

// descending returns the indices of d ordered by descending value, equal
// values keeping their order in d.
func descending(d []float64) []int {
	idx := make([]int, len(d))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d[idx[a]] > d[idx[b]] })
	return idx
}

// canonicalizeSign flips v so that its largest-magnitude component is
// positive.
func canonicalizeSign(v []float64) {
	var (
		mx  float64
		arg int
	)
	for i, x := range v {
		if a := math.Abs(x); a > mx {
			mx, arg = a, i
		}
	}
	if mx > 0 && v[arg] < 0 {
		for i := range v {
			v[i] = -v[i]
		}
	}
}

// tred2 reduces the symmetric n×n matrix stored row-major in z (n =
// len(d)) to tridiagonal form by Householder similarity transformations,
// accumulating the transformation in z. On return d holds the diagonal
// and e the sub-diagonal (e[0] = 0). Translated from the EISPACK routine
// of the same name (0-indexed); z[i*n+j] is element (i, j).
func tred2(z, d, e []float64) {
	n := len(d)
	householder(z, d, e)
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		z[(n-1)*n+i] = z[i*n+i]
		z[i*n+i] = 1
		l := i + 1
		if d[l] != 0 {
			for k := 0; k < l; k++ {
				d[k] = z[k*n+l] / d[l]
			}
			for j := 0; j < l; j++ {
				var g float64
				for k := 0; k < l; k++ {
					g += z[k*n+l] * z[k*n+j]
				}
				for k := 0; k < l; k++ {
					z[k*n+j] -= g * d[k]
				}
			}
		}
		for k := 0; k < l; k++ {
			z[k*n+l] = 0
		}
	}
	for i := 0; i < n; i++ {
		d[i] = z[(n-1)*n+i]
		z[(n-1)*n+i] = 0
	}
	z[(n-1)*n+n-1] = 1
	e[0] = 0
}

// householder is tred2's reduction without the accumulation. On return
// z[i*n+i] holds diagonal element i of the tridiagonal form, e[i] its
// sub-diagonal element (i, i-1) for i ≥ 1, and the reflector
// P_i = I − u·uᵗ/d[i] that step i applied is kept in place: u is
// z[0..i-1] of column i, and d[i] = 0 marks a step that reflected
// nothing. The similarity is A = Q·T·Qᵗ with Q = P_{n-1}⋯P_2·P_1.
func householder(z, d, e []float64) {
	n := len(d)
	for i := 0; i < n; i++ {
		d[i] = z[(n-1)*n+i]
	}
	for i := n - 1; i > 0; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(d[k])
			}
			if scale == 0 {
				e[i] = d[l]
				for j := 0; j <= l; j++ {
					d[j] = z[l*n+j]
					z[i*n+j] = 0
					z[j*n+i] = 0
				}
			} else {
				for k := 0; k <= l; k++ {
					d[k] /= scale
					h += d[k] * d[k]
				}
				f := d[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				d[l] = f - g
				for j := 0; j <= l; j++ {
					e[j] = 0
				}
				for j := 0; j <= l; j++ {
					f = d[j]
					z[j*n+i] = f
					g = e[j] + z[j*n+j]*f
					for k := j + 1; k <= l; k++ {
						zkj := z[k*n+j]
						g += zkj * d[k]
						e[k] += zkj * f
					}
					e[j] = g
				}
				f = 0
				for j := 0; j <= l; j++ {
					e[j] /= h
					f += e[j] * d[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					e[j] -= hh * d[j]
				}
				for j := 0; j <= l; j++ {
					f = d[j]
					g = e[j]
					for k := j; k <= l; k++ {
						z[k*n+j] -= f*e[k] + g*d[k]
					}
					d[j] = z[l*n+j]
					z[i*n+j] = 0
				}
			}
		} else {
			e[i] = d[l]
			d[l] = z[l*n+l]
			z[i*n+l] = 0
			z[l*n+i] = 0
		}
		d[i] = h
	}
}

// transpose transposes the n×n row-major matrix z in place.
func transpose(z []float64, n int) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			z[i*n+j], z[j*n+i] = z[j*n+i], z[i*n+j]
		}
	}
}

// tql2 finds the eigenvalues and eigenvectors of the symmetric tridiagonal
// matrix described by d (diagonal) and e (sub-diagonal, e[0] ignored) using
// the QL method with implicit shifts, updating the transformation
// accumulated in zt. Translated from the EISPACK routine of the same name,
// except that zt holds the transformation transposed (n×n row-major,
// n = len(d)): each rotation then updates two contiguous rows, and on
// return row i of zt is the unit eigenvector for d[i]. A nil zt skips
// the rotations and leaves d and e exactly as with them: the eigenvalues
// alone.
//
// An eigenvalue never leaves the block of T it starts in: between two
// indices that splitBlocks separates, no sweep runs, and on return d[i]
// is an eigenvalue of the block holding index i.
func tql2(zt, d, e []float64) error {
	n := len(d)
	if n <= 1 {
		return nil
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	const maxIter = 50
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find a small sub-diagonal element to split the matrix.
			m := l
			for ; m < n-1; m++ {
				if negligible(e[m], d[m], d[m+1]) {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= maxIter {
				return fmt.Errorf("eigen: tql2 exceeded %d iterations at index %d: %w",
					maxIter, l, ErrNoConvergence)
			}
			// Form the implicit Wilkinson shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			deflated := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// f and g both underflowed: recover and restart the
					// iteration for l (Numerical Recipes' tqli).
					d[i+1] -= p
					e[m] = 0
					deflated = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if zt != nil {
					// Accumulate the rotation into rows i and i+1.
					zi := zt[i*n : (i+1)*n]
					zj := zt[(i+1)*n : (i+2)*n]
					for k, zik := range zi {
						f = zj[k]
						zj[k] = s*zik + c*f
						zi[k] = c*zik - s*f
					}
				}
			}
			// Only a split above skips the closing update. A full sweep
			// whose last r = (d[l]-g)·s + 2cb is exactly zero must still
			// apply it, or d and e stop describing the rotated matrix.
			if deflated {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// negligible reports whether tql2 splits the tridiagonal matrix at the
// off-diagonal element e between diagonal elements d0 and d1. The
// absolute floor handles spectra whose tail underflows toward zero
// (d0, d1 ≈ 0 with a denormal e), where a purely relative test can never
// be met.
func negligible(e, d0, d1 float64) bool {
	return math.Abs(e) <= machEps*(math.Abs(d0)+math.Abs(d1))+1e-300
}

const machEps = 2.220446049250313e-16
