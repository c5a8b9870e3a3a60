package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched lengths must panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 4}, 5},
		{[]float64{0, 0, 0}, 0},
		{nil, 0},
		{[]float64{-2}, 2},
	}
	for _, tc := range tests {
		if got := Norm2(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Norm2(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNorm2OverflowGuard(t *testing.T) {
	huge := math.MaxFloat64 / 2
	got := Norm2([]float64{huge, huge})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Norm2 overflowed: %v", got)
	}
	want := huge * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Norm2 = %v, want %v", got, want)
	}
}

func TestAxpyInto(t *testing.T) {
	dst := make([]float64, 3)
	AxpyInto(dst, 2, []float64{1, 2, 3}, []float64{10, 10, 10})
	if !EqualApproxVec(dst, []float64{12, 14, 16}, 0) {
		t.Errorf("AxpyInto = %v", dst)
	}
	// Aliasing dst == y must work.
	y := []float64{1, 1}
	AxpyInto(y, 1, []float64{1, 2}, y)
	if !EqualApproxVec(y, []float64{2, 3}, 0) {
		t.Errorf("aliased AxpyInto = %v", y)
	}
	defer func() {
		if recover() == nil {
			t.Error("AxpyInto with mismatched lengths must panic")
		}
	}()
	AxpyInto(dst, 1, []float64{1}, []float64{1})
}

func TestVecArithmetic(t *testing.T) {
	if got := AddVec([]float64{1, 2}, []float64{3, 4}); !EqualApproxVec(got, []float64{4, 6}, 0) {
		t.Errorf("AddVec = %v", got)
	}
	if got := SubVec([]float64{1, 2}, []float64{3, 4}); !EqualApproxVec(got, []float64{-2, -2}, 0) {
		t.Errorf("SubVec = %v", got)
	}
}

func TestVecArithmeticPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { AddVec([]float64{1}, []float64{1, 2}) },
		func() { SubVec([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for mismatched lengths")
				}
			}()
			fn()
		}()
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 4}
	n := Normalize(v)
	if math.Abs(n-5) > 1e-12 {
		t.Errorf("Normalize returned %v, want 5", n)
	}
	if math.Abs(Norm2(v)-1) > 1e-12 {
		t.Errorf("normalized norm = %v, want 1", Norm2(v))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Error("Normalize of zero vector must return 0")
	}
	if !EqualApproxVec(z, []float64{0, 0}, 0) {
		t.Error("Normalize must not modify a zero vector")
	}
}

func TestEqualApproxVec(t *testing.T) {
	if !EqualApproxVec([]float64{1, 2}, []float64{1.0001, 2}, 1e-3) {
		t.Error("vectors within tol must be equal")
	}
	if EqualApproxVec([]float64{1}, []float64{1, 2}, 1) {
		t.Error("different lengths must not be equal")
	}
	if EqualApproxVec([]float64{1}, []float64{2}, 0.5) {
		t.Error("vectors outside tol must not be equal")
	}
}

// Property: Cauchy–Schwarz |x·y| <= |x||y|.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Norm2.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		return Norm2(AddVec(x, y)) <= Norm2(x)+Norm2(y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
