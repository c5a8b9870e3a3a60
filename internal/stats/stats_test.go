package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ratiorules/internal/matrix"
)

func TestCovAccumulatorKnown(t *testing.T) {
	// Two columns: perfectly correlated y = 2x over x = 1, 2, 3.
	acc := NewCovAccumulator(2)
	for _, x := range []float64{1, 2, 3} {
		if err := acc.Push([]float64{x, 2 * x}); err != nil {
			t.Fatal(err)
		}
	}
	if acc.Count() != 3 || acc.Width() != 2 {
		t.Fatalf("Count/Width = %d/%d, want 3/2", acc.Count(), acc.Width())
	}
	means, err := acc.Means()
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(means, []float64{2, 4}, 1e-12) {
		t.Errorf("Means = %v, want [2 4]", means)
	}
	s, err := acc.Scatter()
	if err != nil {
		t.Fatal(err)
	}
	// Centered x: -1, 0, 1 → Σx² = 2, Σxy = 4, Σy² = 8.
	want := matrix.MustFromRows([][]float64{{2, 4}, {4, 8}})
	if !matrix.EqualApprox(s, want, 1e-12) {
		t.Errorf("Scatter = %v, want %v", s, want)
	}
}

func TestCovAccumulatorErrors(t *testing.T) {
	acc := NewCovAccumulator(3)
	if err := acc.Push([]float64{1, 2}); !errors.Is(err, ErrWidth) {
		t.Errorf("Push: err = %v, want ErrWidth", err)
	}
	if _, err := acc.Means(); !errors.Is(err, ErrNoData) {
		t.Errorf("Means: err = %v, want ErrNoData", err)
	}
	if _, err := acc.Scatter(); !errors.Is(err, ErrNoData) {
		t.Errorf("Scatter: err = %v, want ErrNoData", err)
	}
	if err := acc.Push([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCovAccumulatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative width must panic")
		}
	}()
	NewCovAccumulator(-1)
}

// Property: the paper's one-pass scatter equals the two-pass oracle.
func TestOnePassEqualsTwoPassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(40), 1+rng.Intn(8)
		x := matrix.NewDense(n, m)
		for i := 0; i < n; i++ {
			row := x.RawRow(i)
			for j := range row {
				// Offset means to exercise the N·avg·avg correction.
				row[j] = 100*float64(j) + 10*rng.NormFloat64()
			}
		}
		acc := NewCovAccumulator(m)
		for i := 0; i < n; i++ {
			if err := acc.Push(x.RawRow(i)); err != nil {
				return false
			}
		}
		onePass, err := acc.Scatter()
		if err != nil {
			return false
		}
		twoPass, means := ScatterTwoPass(x)
		accMeans, err := acc.Means()
		if err != nil {
			return false
		}
		if !matrix.EqualApproxVec(means, accMeans, 1e-9) {
			return false
		}
		return matrix.EqualApprox(onePass, twoPass, 1e-6*(1+twoPass.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: scatter matrices are symmetric positive semi-definite
// (checked via non-negative diagonal and Cauchy-Schwarz off-diagonals).
func TestScatterPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(20), 1+rng.Intn(6)
		acc := NewCovAccumulator(m)
		row := make([]float64, m)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			if err := acc.Push(row); err != nil {
				return false
			}
		}
		s, err := acc.Scatter()
		if err != nil {
			return false
		}
		for j := 0; j < m; j++ {
			if s.At(j, j) < -1e-9 {
				return false
			}
			for l := j + 1; l < m; l++ {
				bound := math.Sqrt(s.At(j, j)*s.At(l, l)) + 1e-9
				if math.Abs(s.At(j, l)) > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCovAccumulatorRejectsBadValues(t *testing.T) {
	acc := NewCovAccumulator(2)
	if err := acc.Push([]float64{1, math.NaN()}); !errors.Is(err, ErrBadValue) {
		t.Errorf("NaN: err = %v, want ErrBadValue", err)
	}
	if err := acc.Push([]float64{math.Inf(-1), 1}); !errors.Is(err, ErrBadValue) {
		t.Errorf("-Inf: err = %v, want ErrBadValue", err)
	}
	if acc.Count() != 0 {
		t.Errorf("rejected rows must not count: Count = %d", acc.Count())
	}
}

func TestMergeEqualsSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64(), float64(i)}
	}
	whole := NewCovAccumulator(3)
	a, b := NewCovAccumulator(3), NewCovAccumulator(3)
	for i, r := range rows {
		if err := whole.Push(r); err != nil {
			t.Fatal(err)
		}
		half := a
		if i >= 60 {
			half = b
		}
		if err := half.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), whole.Count())
	}
	m1, err := whole.Means()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := a.Means()
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(m1, m2, 1e-12) {
		t.Error("merged means differ")
	}
	s1, err := whole.Scatter()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Scatter()
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(s1, s2, 1e-9*(1+s1.MaxAbs())) {
		t.Error("merged scatter differs")
	}
}

func TestMergeWidthMismatch(t *testing.T) {
	a, b := NewCovAccumulator(2), NewCovAccumulator(3)
	if err := a.Merge(b); !errors.Is(err, ErrWidth) {
		t.Errorf("err = %v, want ErrWidth", err)
	}
}

func TestRMS(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, -4}, math.Sqrt(12.5)},
		{[]float64{0, 0}, 0},
	}
	for _, tc := range tests {
		if got := RMS(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("RMS(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestMeanStdDevZScore(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -1, 10}, -1},
	}
	for _, tc := range tests {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median must not modify its input")
	}
}

func TestMADScale(t *testing.T) {
	if got := MADScale(nil); got != 0 {
		t.Errorf("MADScale(nil) = %v", got)
	}
	// Symmetric data around 0 with |deviations| = {0,1,1,2,2}: MAD = 1.
	got := MADScale([]float64{-2, -1, 0, 1, 2})
	if math.Abs(got-1.4826) > 1e-12 {
		t.Errorf("MADScale = %v, want 1.4826", got)
	}
	// Robustness: one wild value barely moves it.
	clean := MADScale([]float64{1, 2, 3, 4, 5})
	dirty := MADScale([]float64{1, 2, 3, 4, 1e9})
	if dirty > 2*clean {
		t.Errorf("MADScale not robust: clean %v, dirty %v", clean, dirty)
	}
	// Approximates std for Gaussian data.
	rng := rand.New(rand.NewSource(33))
	big := make([]float64, 5000)
	for i := range big {
		big[i] = rng.NormFloat64() * 3
	}
	if got := MADScale(big); math.Abs(got-3) > 0.2 {
		t.Errorf("Gaussian MADScale = %v, want ≈ 3", got)
	}
}

func BenchmarkCovPush100Cols(b *testing.B) {
	acc := NewCovAccumulator(100)
	rng := rand.New(rand.NewSource(1))
	row := make([]float64, 100)
	for j := range row {
		row[j] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := acc.Push(row); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPushSparseEqualsDense(t *testing.T) {
	dense := NewCovAccumulator(4)
	sparse := NewCovAccumulator(4)
	rows := [][]float64{
		{1, 0, 2, 0},
		{0, 3, 0, 0},
		{5, 0, 0, 7},
	}
	for _, r := range rows {
		if err := dense.Push(r); err != nil {
			t.Fatal(err)
		}
		if err := sparse.PushSparse(matrix.SparsifyRow(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	sd, err := dense.Scatter()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sparse.Scatter()
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(sd, ss, 1e-12) {
		t.Error("sparse scatter differs from dense")
	}
	md, _ := dense.Means()
	ms, _ := sparse.Means()
	if !matrix.EqualApproxVec(md, ms, 1e-12) {
		t.Error("sparse means differ from dense")
	}
}

func TestPushWeightedValidation(t *testing.T) {
	acc := NewCovAccumulator(2)
	if err := acc.PushWeighted([]float64{1, 2}, 0); !errors.Is(err, ErrBadValue) {
		t.Errorf("zero weight: err = %v, want ErrBadValue", err)
	}
	if err := acc.PushWeighted([]float64{1}, 1); !errors.Is(err, ErrWidth) {
		t.Errorf("short row: err = %v, want ErrWidth", err)
	}
	if err := acc.PushWeighted([]float64{1, math.NaN()}, 1); !errors.Is(err, ErrBadValue) {
		t.Errorf("NaN: err = %v, want ErrBadValue", err)
	}
}
