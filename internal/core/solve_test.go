package core

import (
	"math"
	"math/rand"
	"testing"

	"ratiorules/internal/matrix"
	"ratiorules/internal/quest"
)

// orthonormal returns an m×k matrix with orthonormal columns, from
// Gram–Schmidt on Gaussian columns. With pin >= 0 the first column is
// the unit vector e_pin, so attribute pin lies wholly inside rule 1
// (leverage 1) and V′ is rank-deficient whenever pin is a hole.
func orthonormal(rng *rand.Rand, m, k, pin int) *matrix.Dense {
	cols := make([][]float64, k)
	for c := range cols {
		v := make([]float64, m)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if c == 0 && pin >= 0 {
			clear(v)
			v[pin] = 1
		}
		for pass := 0; pass < 2; pass++ {
			for _, prev := range cols[:c] {
				d := matrix.Dot(v, prev)
				for j := range v {
					v[j] -= d * prev[j]
				}
			}
		}
		matrix.Normalize(v)
		cols[c] = v
	}
	out := matrix.NewDense(m, k)
	for c, v := range cols {
		for j, x := range v {
			out.Set(j, c, x)
		}
	}
	return out
}

// rulesFromV wraps a rule matrix in a rule set with random means and
// descending eigenvalues, as the miner and Load build one.
func rulesFromV(rng *rand.Rand, v *matrix.Dense) *Rules {
	m, k := v.Dims()
	means := make([]float64, m)
	for j := range means {
		means[j] = 10 * rng.NormFloat64()
	}
	eig := make([]float64, k)
	for i := range eig {
		eig[i] = float64(k - i)
	}
	return &Rules{means: means, v: v, eigenvalues: eig, lev: leverages(v)}
}

// svdRef fills row through the pseudo-inverse of V′ alone — the paper's
// Eqs. 7–9 — the reference the closed forms must match.
func svdRef(t *testing.T, r *Rules, row []float64, holes []int) []float64 {
	t.Helper()
	m := r.M()
	isHole, err := holeMask(holes, m)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]float64(nil), row...)
	kEff := min(r.K(), m-len(holes))
	if len(holes) == 0 {
		return out
	}
	if kEff == 0 {
		for _, j := range holes {
			out[j] = r.means[j]
		}
		return out
	}
	b := make([]float64, m)
	r.coords(row, isHole, b, make([]float64, kEff))
	if err := r.fillSVD(b, holes, isHole, kEff, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// fillRelDiff is the worst cell disagreement relative to the larger of the
// two fills' magnitudes.
func fillRelDiff(got, want []float64) float64 {
	var diff, scale float64
	for j := range want {
		diff = math.Max(diff, math.Abs(got[j]-want[j]))
		scale = math.Max(scale, math.Max(math.Abs(got[j]), math.Abs(want[j])))
	}
	return diff / math.Max(scale, 1)
}

// Property: the closed-form fill matches the SVD reference within 1e-9
// relative, on random orthonormal V for every width 2..40, rule counts
// from 0 to M and every hole count — Case 1, Case 2, Case 3, k = M, and
// an attribute lying wholly inside one rule.
func TestFillSolverAgreementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for m := 2; m <= 40; m++ {
		for _, k := range []int{0, 1, 1 + rng.Intn(m), m - 1, m} {
			pin := -1
			if k > 0 && rng.Intn(2) == 0 {
				pin = rng.Intn(m)
			}
			r := rulesFromV(rng, orthonormal(rng, m, k, pin))
			for h := 0; h <= m; h++ {
				holes := rng.Perm(m)[:h]
				if h == 1 && pin >= 0 {
					holes = []int{pin}
				}
				row := make([]float64, m)
				for j := range row {
					row[j] = r.means[j] + 5*rng.NormFloat64()
				}
				got, err := r.FillRow(row, holes)
				if err != nil {
					t.Fatalf("M=%d k=%d holes %v: %v", m, k, holes, err)
				}
				if d := fillRelDiff(got, svdRef(t, r, row, holes)); !(d <= 1e-9) {
					t.Fatalf("M=%d k=%d pin=%d holes %v: closed form differs from SVD by %g", m, k, pin, holes, d)
				}
			}
		}
	}
}

// The case a positive-pivot check gets wrong: 80–90 holes in a mined
// Quest model leave V′ nearly square and badly conditioned, so the
// closed form must hand over to the pseudo-inverse.
func TestFillQuestManyHolesMatchesSVD(t *testing.T) {
	src, err := quest.NewSource(quest.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	miner, err := NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	r, err := miner.Mine(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	m := r.M()
	for h := 80; h <= 90; h++ {
		for trial := 0; trial < 40; trial++ {
			holes := rng.Perm(m)[:h]
			row := make([]float64, m)
			for j := range row {
				row[j] = math.Max(0, r.means[j]+20*rng.NormFloat64())
			}
			got, err := r.FillRow(row, holes)
			if err != nil {
				t.Fatal(err)
			}
			if d := fillRelDiff(got, svdRef(t, r, row, holes)); !(d <= 1e-9) {
				t.Fatalf("k=%d h=%d: closed form differs from SVD by %g", r.K(), h, d)
			}
		}
	}
}

// GE₁ through the leave-one-out identity equals Eq. 3 evaluated cell by
// cell through the SVD reference, including an attribute with leverage 1
// (which must take the fallback) and k = M (every single hole is Case 3).
func TestGE1ClosedFormMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cases := []struct{ m, k, pin int }{
		{1, 1, -1}, {5, 0, -1}, {8, 3, -1}, {8, 3, 5}, {6, 6, -1}, {10, 9, 2}, {12, 4, 0},
	}
	for _, tc := range cases {
		r := rulesFromV(rng, orthonormal(rng, tc.m, tc.k, tc.pin))
		test := matrix.NewDense(30, tc.m)
		for i := 0; i < 30; i++ {
			for j := 0; j < tc.m; j++ {
				test.Set(i, j, r.means[j]+3*rng.NormFloat64())
			}
		}
		got, err := GE1(r, test)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := 0; i < 30; i++ {
			row := test.RawRow(i)
			for j := range row {
				d := svdRef(t, r, row, []int{j})[j] - row[j]
				sum += d * d
			}
		}
		want := math.Sqrt(sum / float64(30*tc.m))
		if d := math.Abs(got-want) / want; !(d <= 1e-12) {
			t.Fatalf("M=%d k=%d pin=%d: GE1 %v, per-cell SVD %v (rel %g)", tc.m, tc.k, tc.pin, got, want, d)
		}
	}
}
