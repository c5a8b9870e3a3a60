package eigen

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ratiorules/internal/matrix"
)

// fuzzMatrix decodes a symmetric matrix from fuzz bytes: n = 1 + b[0]%16,
// a power-of-two scale 2^e with e = int8(b[1])/2 (so -64 ≤ e ≤ 63), then
// the upper triangle row by row, each entry a little-endian int16 times
// the scale. Missing bytes read as zero, so short inputs give sparse and
// degenerate matrices. Every entry is finite and below 2^78 in
// magnitude.
func fuzzMatrix(data []byte) *matrix.Dense {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1 + int(at(0))%16
	exp := int(int8(at(1))) / 2
	a := matrix.NewDense(n, n)
	p := 2
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := math.Ldexp(float64(int16(uint16(at(p))|uint16(at(p+1))<<8)), exp)
			p += 2
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// FuzzSymEig checks SymEig on arbitrary small symmetric matrices: it never
// panics, and unless it reports ErrNoConvergence it returns descending
// eigenvalues with orthonormal eigenvectors that satisfy A·V = V·Λ to
// round-off relative to ‖A‖, and eigenvalues that match Jacobi's whenever
// Jacobi converges. SymEigLeading, for every k from 0 to n, returns
// SymEig's eigenvalues bit for bit and k vectors held to the same bounds.
func FuzzSymEig(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0})                                // 1×1 [1]
	f.Add([]byte{1, 0, 2, 0, 1, 0, 2, 0})                    // [[2,1],[1,2]]
	f.Add([]byte{4, 0})                                      // 5×5 zero
	f.Add([]byte{15, 0x81, 0xff, 0x7f, 0x01, 0x80, 0, 0, 7}) // 16×16, scale 2^-63
	f.Add([]byte{9, 0x7f, 0xff, 0x7f, 0xff, 0x7f, 0xff, 0x7f, 1, 0, 0, 0, 1, 0})
	f.Add([]byte("20RRRR02RR")) // TestQLSweepEndingOnZero's matrix, scaled by 2^24
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzMatrix(data)
		n := a.Rows()
		sys, err := SymEig(a)
		if errors.Is(err, ErrNoConvergence) {
			return
		}
		if err != nil {
			t.Fatalf("SymEig(%d×%d): %v", n, n, err)
		}
		if len(sys.Values) != n || sys.Vectors.Rows() != n || sys.Vectors.Cols() != n {
			t.Fatalf("shape: %d values, %d×%d vectors for n=%d",
				len(sys.Values), sys.Vectors.Rows(), sys.Vectors.Cols(), n)
		}
		for i, v := range sys.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("value %d = %v", i, v)
			}
			if i > 0 && v > sys.Values[i-1] {
				t.Fatalf("values not descending: %v", sys.Values)
			}
		}

		// Backward-stable solvers are accurate relative to ‖A‖; n ≤ 16
		// keeps the round-off near 16ε, far below these bounds.
		checkPairs(t, "SymEig", a, sys)
		for k := 0; k <= n; k++ {
			lead, err := SymEigLeading(a, func([]float64) int { return k })
			if err != nil {
				t.Fatalf("SymEigLeading(%d×%d, k=%d): %v", n, n, k, err)
			}
			for i, v := range sys.Values {
				if math.Float64bits(lead.Values[i]) != math.Float64bits(v) {
					t.Fatalf("k=%d: value %d = %v, SymEig %v", k, i, lead.Values[i], v)
				}
			}
			if lead.Vectors.Rows() != n || lead.Vectors.Cols() != k {
				t.Fatalf("k=%d: %d×%d vectors for n=%d", k, lead.Vectors.Rows(), lead.Vectors.Cols(), n)
			}
			checkPairs(t, fmt.Sprintf("SymEigLeading k=%d", k), a, lead)
		}

		// Jacobi stops once its off-diagonal mass is below
		// 1e-14·(1 + max|a_ij|), which by Weyl's theorem bounds how far its
		// diagonal can sit from the true eigenvalues.
		js, err := Jacobi(a)
		if err != nil {
			return
		}
		tol := 1e-12*a.FrobeniusNorm() + 1e-13*(1+a.MaxAbs())
		for i := range js.Values {
			if d := math.Abs(js.Values[i] - sys.Values[i]); d > tol {
				t.Fatalf("value %d: SymEig %v, Jacobi %v (|Δ| = %g > %g)",
					i, sys.Values[i], js.Values[i], d, tol)
			}
		}
	})
}

// checkPairs holds the eigenvectors in sys, one per leading eigenvalue,
// to FuzzSymEig's bounds: VᵗV = I to 1e-12 and ‖AV − VΛ‖ ≤ 1e-12·‖A‖.
func checkPairs(t *testing.T, solver string, a *matrix.Dense, sys *System) {
	t.Helper()
	n, k := a.Rows(), sys.Vectors.Cols()
	normA := a.FrobeniusNorm()
	gram := matrix.MustMul(sys.Vectors.T(), sys.Vectors)
	if !matrix.EqualApprox(gram, matrix.Identity(k), 1e-12) {
		t.Fatalf("%s: VᵗV ≠ I for n=%d", solver, n)
	}
	av := matrix.MustMul(a, sys.Vectors)
	vl := matrix.MustMul(sys.Vectors, matrix.Diagonal(sys.Values[:k]))
	resid, err := matrix.Sub(av, vl)
	if err != nil {
		t.Fatal(err)
	}
	if r := resid.FrobeniusNorm(); r > 1e-12*normA {
		t.Fatalf("%s: ‖AV − VΛ‖ = %g > 1e-12·‖A‖ = %g (n=%d)", solver, r, 1e-12*normA, n)
	}
}
