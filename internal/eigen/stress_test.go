package eigen

import (
	"math"
	"testing"

	"ratiorules/internal/matrix"
)

// wilkinson builds the Wilkinson W21+ matrix, a classic stress test with
// pairs of pathologically close (but unequal) eigenvalues.
func wilkinson(n int) *matrix.Dense {
	a := matrix.NewDense(n, n)
	half := (n - 1) / 2
	for i := 0; i < n; i++ {
		d := i - half
		if d < 0 {
			d = -d
		}
		a.Set(i, i, float64(d))
		if i+1 < n {
			a.Set(i, i+1, 1)
			a.Set(i+1, i, 1)
		}
	}
	return a
}

func TestWilkinsonCloseEigenvalues(t *testing.T) {
	// W21+: the two largest eigenvalues agree to ~1e-15 yet differ; both
	// solvers must converge and deliver an orthonormal basis anyway.
	a := wilkinson(21)
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			// Known: the top eigenvalue of W21+ is ≈ 10.746194.
			if math.Abs(sys.Values[0]-10.746194) > 1e-5 {
				t.Errorf("top eigenvalue = %v, want ≈ 10.746194", sys.Values[0])
			}
			if math.Abs(sys.Values[0]-sys.Values[1]) > 1e-10 {
				t.Errorf("top pair gap = %v, want pathologically small",
					sys.Values[0]-sys.Values[1])
			}
			assertDecomposition(t, a, sys, 1e-8)
		})
	}
}

// hilbert builds the notoriously ill-conditioned Hilbert matrix.
func hilbert(n int) *matrix.Dense {
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1/float64(i+j+1))
		}
	}
	return a
}

func TestHilbertIllConditioned(t *testing.T) {
	// Hilbert 12×12: condition number ~1e16. All solvers must return a
	// valid decomposition with non-negative eigenvalues (it is PSD) to
	// within round-off.
	a := hilbert(12)
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			// Known top eigenvalue of H12 ≈ 1.7953720595620.
			if math.Abs(sys.Values[0]-1.7953720595620) > 1e-9 {
				t.Errorf("top eigenvalue = %v, want ≈ 1.79537", sys.Values[0])
			}
			for _, l := range sys.Values {
				if l < -1e-12 {
					t.Errorf("negative eigenvalue %v from a PSD matrix", l)
				}
			}
			assertDecomposition(t, a, sys, 1e-9)
		})
	}
}

func TestGradedSpectrum(t *testing.T) {
	// Diagonal spanning 16 orders of magnitude with a small coupling —
	// checks the absolute-floor fix in tql2's convergence test.
	n := 16
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, math.Pow(10, float64(-i)))
		if i+1 < n {
			c := 1e-3 * math.Pow(10, float64(-i))
			a.Set(i, i+1, c)
			a.Set(i+1, i, c)
		}
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sys.Values[0]-1) > 1e-5 {
				t.Errorf("top eigenvalue = %v, want ≈ 1", sys.Values[0])
			}
			for i := 1; i < n; i++ {
				if sys.Values[i] > sys.Values[i-1] {
					t.Fatalf("values not descending on graded spectrum")
				}
			}
			assertOrthonormal(t, sys.Vectors, 1e-9)
		})
	}
}

func TestLargeConstantMatrix(t *testing.T) {
	// all-ones: rank 1 with eigenvalue n; massive degeneracy at 0.
	n := 30
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1)
		}
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sys.Values[0]-float64(n)) > 1e-9*float64(n) {
				t.Errorf("top eigenvalue = %v, want %d", sys.Values[0], n)
			}
			for _, l := range sys.Values[1:] {
				if math.Abs(l) > 1e-9*float64(n) {
					t.Errorf("null eigenvalue = %v", l)
				}
			}
			assertOrthonormal(t, sys.Vectors, 1e-8)
		})
	}
}

func TestZeroMatrix(t *testing.T) {
	// Every eigenvalue 0 and every off-diagonal negligible: the solvers
	// still owe an orthonormal basis.
	a := matrix.NewDense(6, 6)
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range sys.Values {
				if l != 0 {
					t.Errorf("eigenvalue %v of the zero matrix", l)
				}
			}
			assertDecomposition(t, a, sys, 1e-12)
		})
	}
}

// TestQLSweepEndingOnZero: a QL sweep that runs to completion with its
// last r = (d[l]-g)·s + 2cb exactly zero must still apply the closing
// update of d[l] and e[l]. Treating that zero like the underflow break
// skips the update, and for this matrix (the first input FuzzSymEig
// found) leaves eigenvalues whose product is 1.6·det(A).
func TestQLSweepEndingOnZero(t *testing.T) {
	a := matrix.MustFromRows([][]float64{
		{21074, 21074, 12848},
		{21074, 21074, 0},
		{12848, 0, 0},
	})
	det := -21074.0 * 12848 * 12848
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			prod := sys.Values[0] * sys.Values[1] * sys.Values[2]
			if math.Abs(prod-det) > 1e-9*math.Abs(det) {
				t.Errorf("λ₁λ₂λ₃ = %g, want det(A) = %g", prod, det)
			}
			assertDecomposition(t, a, sys, 1e-10)
		})
	}
}
