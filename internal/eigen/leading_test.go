package eigen

import (
	"math"
	"math/rand"
	"testing"

	"ratiorules/internal/matrix"
)

// leadingCorpus returns matrices of every shape the tests above stress:
// random PSD and indefinite ones, the Hilbert and Wilkinson matrices,
// a graded spectrum, the identity, the zero matrix, rank-one and
// all-ones matrices, the Quest M=100 scatter, and the random PSD M=200
// matrix BenchmarkSymEigLeading3of200 solves (k ≪ M).
func leadingCorpus(tb testing.TB) []*matrix.Dense {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	var corpus []*matrix.Dense
	for n := 1; n <= 40; n += 3 {
		corpus = append(corpus, randomPSD(rng, n), randomSymmetric(rng, n))
	}
	graded := matrix.NewDense(16, 16)
	for i := 0; i < 16; i++ {
		graded.Set(i, i, math.Pow(10, float64(-i)))
		if i+1 < 16 {
			c := 1e-3 * math.Pow(10, float64(-i))
			graded.Set(i, i+1, c)
			graded.Set(i+1, i, c)
		}
	}
	ones := matrix.NewDense(30, 30)
	rank1 := matrix.NewDense(4, 4)
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			ones.Set(i, j, 1)
			if i < 4 && j < 4 {
				rank1.Set(i, j, float64((i+1)*(j+1)))
			}
		}
	}
	return append(corpus, hilbert(12), wilkinson(21), graded, matrix.Identity(7),
		matrix.NewDense(6, 6), ones, rank1, questScatter(tb),
		randomPSD(rand.New(rand.NewSource(1)), 200))
}

// TestSymEigLeadingMatchesSymEig: for every k, the eigenvalues are
// SymEig's bit for bit, inverse iteration meets its residual bound
// without the SymEig fallback, and each kept vector lies in the span of
// SymEig's vectors for the eigenvalues within 1e-3·‖λ‖∞ of its own (the
// vector itself where that eigenvalue is isolated).
func TestSymEigLeadingMatchesSymEig(t *testing.T) {
	for ci, a := range leadingCorpus(t) {
		n := a.Rows()
		full, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		scale := 0.0
		for _, l := range full.Values {
			scale = math.Max(scale, math.Abs(l))
		}
		for _, k := range []int{0, 1, min(3, n), n / 2, n} {
			sys, fellBack, err := symEigLeading(a, func([]float64) int { return k }, residualBound)
			if err != nil {
				t.Fatalf("matrix %d (n=%d), k=%d: %v", ci, n, k, err)
			}
			if fellBack {
				t.Errorf("matrix %d (n=%d), k=%d: a vector missed its residual bound", ci, n, k)
			}
			for i, l := range full.Values {
				if math.Float64bits(sys.Values[i]) != math.Float64bits(l) {
					t.Fatalf("matrix %d, k=%d: value %d = %v, SymEig %v", ci, k, i, sys.Values[i], l)
				}
			}
			if sys.Vectors.Rows() != n || sys.Vectors.Cols() != k {
				t.Fatalf("matrix %d: %d×%d vectors for n=%d, k=%d", ci, sys.Vectors.Rows(), sys.Vectors.Cols(), n, k)
			}
			assertDecomposition(t, a, sys, 1e-12)
			for c := 0; c < k; c++ {
				v := sys.Vectors.Col(c)
				for j := 0; j < n; j++ {
					if math.Abs(full.Values[j]-full.Values[c]) <= 1e-3*scale {
						w := full.Vectors.Col(j)
						matrix.AxpyInto(v, -matrix.Dot(v, w), w, v)
					}
				}
				if r := matrix.Norm2(v); r > 1e-10 {
					t.Errorf("matrix %d (n=%d), k=%d: vector %d is %g outside SymEig's", ci, n, k, c, r)
				}
			}
		}
	}
}

// TestSymEigLeadingFallback: when a vector misses its bound (here, an
// impossible one), the vectors are SymEig's and the values unchanged.
func TestSymEigLeadingFallback(t *testing.T) {
	a := randomSymmetric(rand.New(rand.NewSource(8)), 9)
	full, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	sys, fellBack, err := symEigLeading(a, func([]float64) int { return 4 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fellBack {
		t.Fatal("a zero residual bound was met")
	}
	if !matrix.EqualApproxVec(sys.Values, full.Values, 0) {
		t.Errorf("values %v, want %v", sys.Values, full.Values)
	}
	if !matrix.EqualApprox(sys.Vectors, full.Vectors.SelectCols([]int{0, 1, 2, 3}), 0) {
		t.Error("fallback vectors are not SymEig's leading four")
	}
}

func TestSymEigLeadingPickOutOfRange(t *testing.T) {
	a := matrix.Identity(3)
	for _, k := range []int{-1, 4} {
		if _, err := SymEigLeading(a, func([]float64) int { return k }); err == nil {
			t.Errorf("k=%d: want an error", k)
		}
	}
}

// energyPick keeps the leading eigenvalues that cover 85% of their sum,
// the miner's default cutoff.
func energyPick(values []float64) int {
	var total, sum float64
	for _, l := range values {
		total += l
	}
	for i, l := range values {
		if sum += l; sum >= 0.85*total {
			return i + 1
		}
	}
	return len(values)
}

// BenchmarkSymEigLeadingQuest100 keeps the 14 vectors the Quest scatter
// mines to at the default 85% energy; BenchmarkSymEigQuest100 is the
// full solve of the same matrix.
func BenchmarkSymEigLeadingQuest100(b *testing.B) {
	benchLeading(b, questScatter(b), energyPick)
}

// BenchmarkSymEigLeading3of200 and BenchmarkSymEigLeading3of400 keep
// three vectors of wide random PSD matrices (the paper's footnote 1
// shape: k ≪ M); BenchmarkSymEig200 and BenchmarkSymEig400 are the full
// solves of the same matrices.
func BenchmarkSymEigLeading3of200(b *testing.B) {
	benchLeading(b, randomPSD(rand.New(rand.NewSource(1)), 200), func([]float64) int { return 3 })
}

func BenchmarkSymEigLeading3of400(b *testing.B) {
	benchLeading(b, randomPSD(rand.New(rand.NewSource(1)), 400), func([]float64) int { return 3 })
}

func benchLeading(b *testing.B, a *matrix.Dense, pick func([]float64) int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigLeading(a, pick); err != nil {
			b.Fatal(err)
		}
	}
}
