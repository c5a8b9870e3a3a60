package eigen

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ratiorules/internal/matrix"
	"ratiorules/internal/quest"
	"ratiorules/internal/stats"
)

// solvers lets every test run against each implementation.
// SymEigLeading runs twice: keeping every vector, and keeping the
// leading half (k < n from n = 2 up).
var solvers = []struct {
	name string
	fn   func(*matrix.Dense) (*System, error)
}{
	{"SymEig", SymEig},
	{"Jacobi", Jacobi},
	{"SymEigLeadingAll", func(a *matrix.Dense) (*System, error) {
		return SymEigLeading(a, func(values []float64) int { return len(values) })
	}},
	{"SymEigLeadingHalf", func(a *matrix.Dense) (*System, error) {
		return SymEigLeading(a, func(values []float64) int { return (len(values) + 1) / 2 })
	}},
}

func TestDiagonalMatrix(t *testing.T) {
	a := matrix.Diagonal([]float64{3, 1, 2})
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			want := []float64{3, 2, 1}
			if !matrix.EqualApproxVec(sys.Values, want, 1e-12) {
				t.Errorf("Values = %v, want %v", sys.Values, want)
			}
			assertDecomposition(t, a, sys, 1e-10)
		})
	}
}

func TestKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors
	// (1,1)/√2 and (1,-1)/√2.
	a := matrix.MustFromRows([][]float64{{2, 1}, {1, 2}})
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.EqualApproxVec(sys.Values, []float64{3, 1}, 1e-12) {
				t.Fatalf("Values = %v, want [3 1]", sys.Values)
			}
			v0 := sys.Vectors.Col(0)
			inv := 1 / math.Sqrt2
			if !matrix.EqualApproxVec(v0, []float64{inv, inv}, 1e-10) {
				t.Errorf("first eigenvector = %v, want [%v %v]", v0, inv, inv)
			}
		})
	}
}

func TestPaperFigure1Direction(t *testing.T) {
	// The paper's Fig. 1 states that eigensystem analysis identifies
	// (0.866, 0.5) as the best axis for the bread/butter toy data. Build a
	// covariance matrix whose top eigenvector is exactly that direction and
	// confirm both solvers recover it.
	d := []float64{0.866, 0.5}
	a := matrix.NewDense(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			a.Set(i, j, 10*d[i]*d[j]+0.1*float64(boolToInt(i == j)))
		}
	}
	unit := append([]float64(nil), d...)
	matrix.Normalize(unit)
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.EqualApproxVec(sys.Vectors.Col(0), unit, 1e-9) {
				t.Errorf("top eigenvector = %v, want %v", sys.Vectors.Col(0), unit)
			}
		})
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestEmptyAndSingleton(t *testing.T) {
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(matrix.NewDense(0, 0))
			if err != nil {
				t.Fatalf("0×0: %v", err)
			}
			if len(sys.Values) != 0 {
				t.Errorf("0×0 Values = %v", sys.Values)
			}
			sys, err = s.fn(matrix.MustFromRows([][]float64{{7}}))
			if err != nil {
				t.Fatalf("1×1: %v", err)
			}
			if !matrix.EqualApproxVec(sys.Values, []float64{7}, 0) {
				t.Errorf("1×1 Values = %v, want [7]", sys.Values)
			}
			if got := sys.Vectors.At(0, 0); math.Abs(math.Abs(got)-1) > 1e-12 {
				t.Errorf("1×1 vector = %v, want ±1", got)
			}
		})
	}
}

func TestNotSymmetricRejected(t *testing.T) {
	bad := matrix.MustFromRows([][]float64{{1, 2}, {3, 4}})
	rect := matrix.NewDense(2, 3)
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			if _, err := s.fn(bad); !errors.Is(err, ErrNotSymmetric) {
				t.Errorf("asymmetric: err = %v, want ErrNotSymmetric", err)
			}
			if _, err := s.fn(rect); !errors.Is(err, ErrNotSymmetric) {
				t.Errorf("rectangular: err = %v, want ErrNotSymmetric", err)
			}
		})
	}
}

func TestInputNotModified(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSymmetric(rng, 6)
	orig := a.Clone()
	for _, s := range solvers {
		if _, err := s.fn(a); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !matrix.EqualApprox(a, orig, 0) {
			t.Fatalf("%s modified its input", s.name)
		}
	}
}

func TestRepeatedEigenvalues(t *testing.T) {
	// Identity: all eigenvalues 1; eigenvectors must still be orthonormal.
	a := matrix.Identity(5)
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range sys.Values {
				if math.Abs(v-1) > 1e-12 {
					t.Errorf("eigenvalue %v, want 1", v)
				}
			}
			assertOrthonormal(t, sys.Vectors, 1e-10)
		})
	}
}

func TestRankDeficient(t *testing.T) {
	// Rank-1 matrix v·vᵗ: one eigenvalue |v|², rest zero.
	v := []float64{1, 2, 3, 4}
	a := matrix.NewDense(4, 4)
	for i := range v {
		for j := range v {
			a.Set(i, j, v[i]*v[j])
		}
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			sys, err := s.fn(a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sys.Values[0]-30) > 1e-9 {
				t.Errorf("top eigenvalue = %v, want 30", sys.Values[0])
			}
			for _, lam := range sys.Values[1:] {
				if math.Abs(lam) > 1e-9 {
					t.Errorf("trailing eigenvalue = %v, want 0", lam)
				}
			}
			assertDecomposition(t, a, sys, 1e-8)
		})
	}
}

func TestSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		a := randomSymmetric(rng, n)
		s1, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Jacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.EqualApproxVec(s1.Values, s2.Values, 1e-8*(1+a.MaxAbs())) {
			t.Fatalf("n=%d eigenvalues disagree:\nSymEig: %v\nJacobi: %v", n, s1.Values, s2.Values)
		}
	}
}

func TestValuesDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSymmetric(rng, 12)
	for _, s := range solvers {
		sys, err := s.fn(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(sys.Values); i++ {
			if sys.Values[i] > sys.Values[i-1]+1e-12 {
				t.Fatalf("%s: values not descending: %v", s.name, sys.Values)
			}
		}
	}
}

// Property: A·v = λ·v, orthonormal V, trace preserved, for random symmetric
// matrices of random size.
func TestDecompositionProperty(t *testing.T) {
	for _, s := range solvers {
		s := s
		t.Run(s.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(14)
				a := randomSymmetric(rng, n)
				sys, err := s.fn(a)
				if err != nil {
					return false
				}
				tol := 1e-8 * (1 + a.MaxAbs())
				// Reconstruction A == V·diag(λ)·Vᵗ, or A·V = V·diag(λ)
				// for the kept vectors.
				if lhs, rhs := decomposition(a, sys); !matrix.EqualApprox(lhs, rhs, tol) {
					return false
				}
				// Orthonormality.
				gram := matrix.MustMul(sys.Vectors.T(), sys.Vectors)
				if !matrix.EqualApprox(gram, matrix.Identity(sys.Vectors.Cols()), 1e-9) {
					return false
				}
				// Trace preservation.
				var trA, trL float64
				for i := 0; i < n; i++ {
					trA += a.At(i, i)
					trL += sys.Values[i]
				}
				return math.Abs(trA-trL) <= tol*float64(n)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSignCanonicalization(t *testing.T) {
	// Largest-magnitude component of every eigenvector must be positive.
	rng := rand.New(rand.NewSource(11))
	a := randomSymmetric(rng, 8)
	for _, s := range solvers {
		sys, err := s.fn(a)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < sys.Vectors.Cols(); j++ {
			col := sys.Vectors.Col(j)
			var mx float64
			var arg int
			for i, x := range col {
				if math.Abs(x) > mx {
					mx, arg = math.Abs(x), i
				}
			}
			if col[arg] < 0 {
				t.Errorf("%s: eigenvector %d not sign-canonicalized: %v", s.name, j, col)
			}
		}
	}
}

func TestLargeMatrixConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 100×100 eigensolve in -short mode")
	}
	rng := rand.New(rand.NewSource(99))
	a := randomSymmetric(rng, 100)
	sys, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	assertDecomposition(t, a, sys, 1e-7)
}

func assertDecomposition(t *testing.T, a *matrix.Dense, sys *System, tol float64) {
	t.Helper()
	n, _ := a.Dims()
	if lhs, rhs := decomposition(a, sys); !matrix.EqualApprox(lhs, rhs, tol*(1+a.MaxAbs())) {
		t.Errorf("V·diag(λ)·Vᵗ does not reconstruct A (n=%d, %d vectors)", n, sys.Vectors.Cols())
	}
	assertOrthonormal(t, sys.Vectors, tol)
}

// decomposition returns the two sides of the identity sys must satisfy:
// A and V·diag(λ)·Vᵗ when sys holds every vector, else A·V and V·diag(λ)
// over the k kept ones.
func decomposition(a *matrix.Dense, sys *System) (lhs, rhs *matrix.Dense) {
	k := sys.Vectors.Cols()
	vl := matrix.MustMul(sys.Vectors, matrix.Diagonal(sys.Values[:k]))
	if k == a.Rows() {
		return a, matrix.MustMul(vl, sys.Vectors.T())
	}
	return matrix.MustMul(a, sys.Vectors), vl
}

func assertOrthonormal(t *testing.T, v *matrix.Dense, tol float64) {
	t.Helper()
	_, cols := v.Dims()
	gram := matrix.MustMul(v.T(), v)
	if !matrix.EqualApprox(gram, matrix.Identity(cols), tol) {
		t.Error("eigenvector matrix columns are not orthonormal")
	}
}

// randomPSD builds a random symmetric positive semi-definite matrix with a
// decaying spectrum, like a covariance matrix. The per-column decay is
// tempered for large n so the spectrum spans a realistic dynamic range
// instead of underflowing.
func randomPSD(rng *rand.Rand, n int) *matrix.Dense {
	decay := math.Pow(1e-6, 1/float64(n)) // spectrum spans ~12 orders of magnitude
	g := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		row := g.RawRow(i)
		for j := range row {
			row[j] = rng.NormFloat64() * math.Pow(decay, float64(j))
		}
	}
	return matrix.MustMul(g.T(), g)
}

func randomSymmetric(rng *rand.Rand, n int) *matrix.Dense {
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// questScatter returns the centred scatter of 20,000 Quest rows (M=100,
// the paper's scale-up setting): the shape of matrix the miner solves.
func questScatter(tb testing.TB) *matrix.Dense {
	tb.Helper()
	src, err := quest.NewSource(quest.DefaultConfig(20000))
	if err != nil {
		tb.Fatal(err)
	}
	x := matrix.NewDense(20000, src.Width())
	for i := 0; i < 20000; i++ {
		row, err := src.Next()
		if err != nil {
			tb.Fatal(err)
		}
		x.SetRow(i, row)
	}
	scatter, _ := stats.ScatterTwoPass(x)
	return scatter
}

func BenchmarkSymEig50(b *testing.B)  { benchSolver(b, SymEig, 50) }
func BenchmarkSymEig100(b *testing.B) { benchSolver(b, SymEig, 100) }
func BenchmarkJacobi50(b *testing.B)  { benchSolver(b, Jacobi, 50) }

// BenchmarkSymEig200 and BenchmarkSymEig400 solve the matrices that
// BenchmarkSymEigLeading3of200 and BenchmarkSymEigLeading3of400 solve.
func BenchmarkSymEig200(b *testing.B) {
	benchMatrix(b, SymEig, randomPSD(rand.New(rand.NewSource(1)), 200))
}

func BenchmarkSymEig400(b *testing.B) {
	benchMatrix(b, SymEig, randomPSD(rand.New(rand.NewSource(1)), 400))
}

func BenchmarkSymEigQuest100(b *testing.B) { benchMatrix(b, SymEig, questScatter(b)) }

func benchSolver(b *testing.B, fn func(*matrix.Dense) (*System, error), n int) {
	benchMatrix(b, fn, randomSymmetric(rand.New(rand.NewSource(1)), n))
}

func benchMatrix(b *testing.B, fn func(*matrix.Dense) (*System, error), a *matrix.Dense) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(a); err != nil {
			b.Fatal(err)
		}
	}
}
