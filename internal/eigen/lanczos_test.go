package eigen

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ratiorules/internal/matrix"
)

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

func TestLanczosMatchesFullSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(20)
		a := randomPSD(rng, n)
		full, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(3)
		lz, err := Lanczos(a, k)
		if err != nil {
			t.Fatal(err)
		}
		scale := 1 + full.Values[0]
		for j := 0; j < k; j++ {
			if math.Abs(lz.Values[j]-full.Values[j]) > 1e-7*scale {
				t.Fatalf("n=%d k=%d: eigenvalue %d = %v, full %v",
					n, k, j, lz.Values[j], full.Values[j])
			}
		}
	}
}

func TestLanczosValidation(t *testing.T) {
	a := randomPSD(rand.New(rand.NewSource(122)), 5)
	if _, err := Lanczos(a, 0); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := Lanczos(a, 6); err == nil {
		t.Error("k>n must fail")
	}
	if _, err := Lanczos(matrix.NewDense(2, 3), 1); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("rectangular: err = %v, want ErrNotSymmetric", err)
	}
}

func TestLanczosRankDeficient(t *testing.T) {
	// Rank-1 matrix: Lanczos hits an invariant subspace after one step and
	// must still deliver k pairs.
	v := []float64{1, 2, 3, 4, 5, 6}
	a := matrix.NewDense(6, 6)
	for i := range v {
		for j := range v {
			a.Set(i, j, v[i]*v[j])
		}
	}
	lz, err := Lanczos(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lz.Values[0]-91) > 1e-7*92 {
		t.Errorf("top eigenvalue = %v, want 91", lz.Values[0])
	}
	for _, l := range lz.Values[1:] {
		if math.Abs(l) > 1e-7*92 {
			t.Errorf("null eigenvalue = %v, want ≈ 0", l)
		}
	}
}

func TestLanczosIdentity(t *testing.T) {
	// Fully degenerate spectrum.
	lz, err := Lanczos(matrix.Identity(8), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lz.Values {
		if math.Abs(l-1) > 1e-9 {
			t.Errorf("identity eigenvalue = %v, want 1", l)
		}
	}
	assertOrthonormal(t, lz.Vectors, 1e-8)
}

// Property: residuals |A·v − λ·v| vanish relative to the spectral scale.
func TestLanczosResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		a := randomPSD(rng, n)
		k := 1 + rng.Intn(3)
		sys, err := Lanczos(a, k)
		if err != nil {
			return false
		}
		scale := 1 + sys.Values[0]
		for j := 0; j < k; j++ {
			v := sys.Vectors.Col(j)
			av, err := matrix.MulVec(a, v)
			if err != nil {
				return false
			}
			for i := range av {
				av[i] -= sys.Values[j] * v[i]
			}
			if matrix.Norm2(av) > 1e-6*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLanczos3of200(b *testing.B) {
	benchLanczos(b, randomPSD(rand.New(rand.NewSource(1)), 200), 3)
}

func BenchmarkLanczos3of400(b *testing.B) {
	benchLanczos(b, randomPSD(rand.New(rand.NewSource(1)), 400), 3)
}

// BenchmarkLanczos14ofQuest100 asks for the 14 rules the Quest scatter
// mines to at the default 85% energy; BenchmarkSymEigQuest100 is the
// full solve of the same matrix.
func BenchmarkLanczos14ofQuest100(b *testing.B) { benchLanczos(b, questScatter(b), 14) }

func benchLanczos(b *testing.B, a *matrix.Dense, k int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lanczos(a, k); err != nil {
			b.Fatal(err)
		}
	}
}
