package eigen

import (
	"fmt"
	"math"
	"math/rand"

	"ratiorules/internal/matrix"
)

// Lanczos computes the k largest eigenpairs of the symmetric PSD matrix a
// with the Lanczos method plus full reorthogonalization — the algorithm
// family the paper's footnote 1 cites (Berry, Dumais & O'Brien, "Using
// Linear Algebra for Intelligent Information Retrieval") for covariance
// matrices too large for a full solve.
//
// The Krylov basis is expanded one matrix-vector product per step; the
// projected tridiagonal problem is solved with the in-package tql2 and
// iteration stops when the k leading Ritz pairs' residuals fall below tol
// relative to the spectral scale, or when the Krylov space exhausts the
// matrix dimension. Full reorthogonalization keeps the basis numerically
// orthogonal, which is affordable at the subspace sizes Ratio Rules needs
// (k rarely above a few dozen).
func Lanczos(a *matrix.Dense, k int) (*System, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("eigen: Lanczos of %d×%d matrix: %w", n, c, ErrNotSymmetric)
	}
	if err := checkSymmetric(a); err != nil {
		return nil, err
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("eigen: Lanczos k=%d outside [1, %d]", k, n)
	}

	const tol = 1e-10
	maxDim := n
	// Krylov basis vectors, alphas (diagonal) and betas (sub-diagonal).
	basis := make([][]float64, 0, maxDim)
	var alphas, betas []float64

	rng := rand.New(rand.NewSource(271828))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	matrix.Normalize(v)
	basis = append(basis, append([]float64(nil), v...))

	for step := 0; len(basis) <= maxDim; step++ {
		q := basis[len(basis)-1]
		w, err := matrix.MulVec(a, q)
		if err != nil {
			return nil, err
		}
		alpha := matrix.Dot(q, w)
		alphas = append(alphas, alpha)
		// w ← w − α·q − β·q_prev, then full reorthogonalization.
		for i := range w {
			w[i] -= alpha * q[i]
		}
		if len(basis) > 1 {
			prev := basis[len(basis)-2]
			beta := betas[len(betas)-1]
			for i := range w {
				w[i] -= beta * prev[i]
			}
		}
		for _, b := range basis {
			d := matrix.Dot(w, b)
			if d != 0 {
				for i := range w {
					w[i] -= d * b[i]
				}
			}
		}
		beta := matrix.Norm2(w)

		// Solve the projected tridiagonal problem and test convergence of
		// the k leading Ritz pairs (residual = |beta · last-row component|).
		dim := len(alphas)
		if dim >= k {
			ritzVals, ritzVecs, err := solveTridiagonal(alphas, betas)
			if err != nil {
				return nil, err
			}
			scale := 1 + math.Abs(ritzVals[0])
			converged := true
			for j := 0; j < k; j++ {
				resid := math.Abs(beta * ritzVecs.At(dim-1, j))
				if resid > tol*scale {
					converged = false
					break
				}
			}
			if converged || dim == maxDim || beta <= tol*scale {
				return assembleRitz(a, basis, ritzVals, ritzVecs, k)
			}
		}
		if beta == 0 {
			// Invariant subspace found before convergence: restart
			// direction from fresh noise, orthogonal to the basis.
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			for _, b := range basis {
				d := matrix.Dot(w, b)
				for i := range w {
					w[i] -= d * b[i]
				}
			}
			if matrix.Normalize(w) == 0 {
				// The basis already spans everything.
				ritzVals, ritzVecs, err := solveTridiagonal(alphas, betas)
				if err != nil {
					return nil, err
				}
				return assembleRitz(a, basis, ritzVals, ritzVecs, k)
			}
			beta = 0 // logical break in the tridiagonal structure
		} else {
			for i := range w {
				w[i] /= beta
			}
		}
		betas = append(betas, beta)
		basis = append(basis, append([]float64(nil), w...))
	}
	return nil, fmt.Errorf("eigen: Lanczos did not converge within %d steps: %w", maxDim, ErrNoConvergence)
}

// solveTridiagonal diagonalizes the symmetric tridiagonal matrix with
// diagonal alphas and sub-diagonal betas, returning eigenvalues descending
// and the eigenvector matrix (columns matching).
func solveTridiagonal(alphas, betas []float64) ([]float64, *matrix.Dense, error) {
	dim := len(alphas)
	d := append([]float64(nil), alphas...)
	e := make([]float64, dim)
	// tql2 reads e[1..dim-1] as sub-diagonals (it shifts internally).
	for i := 1; i < dim; i++ {
		e[i] = betas[i-1]
	}
	z := matrix.Identity(dim).RawData()
	if err := tql2(z, d, e); err != nil {
		return nil, nil, err
	}
	sys := sortedSystem(d, z)
	return sys.Values, sys.Vectors, nil
}

// assembleRitz maps the leading k Ritz pairs back to the original space.
func assembleRitz(a *matrix.Dense, basis [][]float64, vals []float64, vecs *matrix.Dense, k int) (*System, error) {
	n, _ := a.Dims()
	dim := len(basis)
	values := make([]float64, k)
	vectors := matrix.NewDense(n, k)
	col := make([]float64, n)
	for j := 0; j < k; j++ {
		values[j] = vals[j]
		for i := range col {
			col[i] = 0
		}
		for p := 0; p < dim; p++ {
			w := vecs.At(p, j)
			if w == 0 {
				continue
			}
			bp := basis[p]
			for i := range col {
				col[i] += w * bp[i]
			}
		}
		matrix.Normalize(col)
		canonicalizeSign(col)
		for i := 0; i < n; i++ {
			vectors.Set(i, j, col[i])
		}
	}
	return &System{Values: values, Vectors: vectors}, nil
}
