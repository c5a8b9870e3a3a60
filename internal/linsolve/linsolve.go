// Package linsolve provides direct linear-system solvers: LU
// factorization with partial pivoting for square systems and Householder
// QR least squares for tall ones, which internal/regress uses to fit its
// regression baseline.
package linsolve

import (
	"errors"
	"fmt"
	"math"

	"ratiorules/internal/matrix"
)

// ErrSingular is returned when a system has no unique solution because the
// coefficient matrix is (numerically) singular.
var ErrSingular = errors.New("linsolve: matrix is singular")

// ErrShape is returned when operand shapes are incompatible with the
// requested operation.
var ErrShape = errors.New("linsolve: incompatible shapes")

// LU is an LU factorization P·A = L·U of a square matrix with partial
// pivoting, stored compactly.
type LU struct {
	lu   *matrix.Dense
	piv  []int
	sign float64 // determinant sign from row swaps
}

// FactorLU computes the LU factorization of the square matrix a with
// partial pivoting. It returns ErrSingular if a zero pivot is encountered.
func FactorLU(a *matrix.Dense) (*LU, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("linsolve: LU of %d×%d matrix: %w", n, c, ErrShape)
	}
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at or below row k.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return nil, fmt.Errorf("linsolve: zero pivot at column %d: %w", k, ErrSingular)
		}
		if p != k {
			rp, rk := lu.RawRow(p), lu.RawRow(k)
			for j := range rp {
				rp[j], rk[j] = rk[j], rp[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.RawRow(i), lu.RawRow(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve returns the solution x of A·x = b for the factored matrix.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n, _ := f.lu.Dims()
	if len(b) != n {
		return nil, fmt.Errorf("linsolve: LU solve with rhs length %d, want %d: %w", len(b), n, ErrShape)
	}
	x := make([]float64, n)
	// Apply the permutation.
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		row := f.lu.RawRow(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.RawRow(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	n, _ := f.lu.Dims()
	d := f.sign
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveSquare solves the square system A·x = b in one shot.
func SolveSquare(a *matrix.Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A⁻¹ for a square non-singular matrix.
func Inverse(a *matrix.Dense) (*matrix.Dense, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("linsolve: inverse of %d×%d matrix: %w", n, c, ErrShape)
	}
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	inv := matrix.NewDense(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// QR is a Householder QR factorization A = Q·R of an m×n matrix with
// m >= n, stored compactly: the upper triangle holds R and the columns
// below the diagonal hold the Householder vectors.
type QR struct {
	qr    *matrix.Dense
	rdiag []float64
}

// FactorQR computes the QR factorization of a, which must have at least as
// many rows as columns.
func FactorQR(a *matrix.Dense) (*QR, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("linsolve: QR of %d×%d matrix needs rows >= cols: %w", m, n, ErrShape)
	}
	qr := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of column k below the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			rdiag[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag}, nil
}

// FullRank reports whether R has no (numerically) zero diagonal entries.
func (f *QR) FullRank() bool {
	var mx float64
	for _, d := range f.rdiag {
		if a := math.Abs(d); a > mx {
			mx = a
		}
	}
	tol := 1e-12 * mx
	for _, d := range f.rdiag {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

// Solve returns the least-squares solution x minimizing |A·x − b|₂.
// It returns ErrSingular if A is rank deficient.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Dims()
	if len(b) != m {
		return nil, fmt.Errorf("linsolve: QR solve with rhs length %d, want %d: %w", len(b), m, ErrShape)
	}
	if !f.FullRank() {
		return nil, fmt.Errorf("linsolve: rank-deficient least squares: %w", ErrSingular)
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply Householder reflectors to the right-hand side: y = Qᵗ·b.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back substitution with R.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / f.rdiag[i]
	}
	return x, nil
}

// SolveLeastSquares solves min |A·x − b|₂ in one shot via QR.
func SolveLeastSquares(a *matrix.Dense, b []float64) ([]float64, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
