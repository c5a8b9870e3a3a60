package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ratiorules/internal/matrix"
)

// linearFixture builds rows with an exact linear relation:
// c = 2a + 3b + 1.
func linearFixture(rng *rand.Rand, n int) *matrix.Dense {
	x := matrix.NewDense(n, 3)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64()*2, rng.NormFloat64()*3
		x.SetRow(i, []float64{a, b, 2*a + 3*b + 1})
	}
	return x
}

func TestFitRecoversExactRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	x := linearFixture(rng, 100)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.PredictColumn([]float64{1, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-6) > 1e-8 {
		t.Errorf("PredictColumn = %v, want 6", got)
	}
	// The inverse direction is also linear: a = (c − 3b − 1)/2.
	got, err = model.PredictColumn([]float64{0, 2, 11}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-8 {
		t.Errorf("inverse prediction = %v, want 2", got)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(matrix.NewDense(10, 1)); err == nil {
		t.Error("1 column must fail")
	}
	if _, err := Fit(matrix.NewDense(2, 3)); err == nil {
		t.Error("too few rows must fail")
	}
}

func TestFillRowSingleHole(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := linearFixture(rng, 80)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.FillRow([]float64{1, 1, -99}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[2]-6) > 1e-8 {
		t.Errorf("filled = %v, want 6", got[2])
	}
	if got[0] != 1 || got[1] != 1 {
		t.Error("known cells changed")
	}
}

func TestFillRowMultiHoleMeanImputes(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	x := linearFixture(rng, 80)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.FillRow([]float64{1, 0, 0}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Hole 2 must be predicted with b imputed at its mean, not with the
	// freshly predicted hole 1.
	means := x.ColMeans()
	want, err := model.PredictColumn([]float64{1, means[1], 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[2]-want) > 1e-10 {
		t.Errorf("multi-hole fill = %v, want mean-imputed %v", got[2], want)
	}
}

func TestFillRowErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	model, err := Fit(linearFixture(rng, 50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.FillRow([]float64{1}, []int{0}); !errors.Is(err, ErrWidth) {
		t.Errorf("width: err = %v, want ErrWidth", err)
	}
	if _, err := model.FillRow([]float64{1, 2, 3}, []int{5}); !errors.Is(err, ErrBadHole) {
		t.Errorf("range: err = %v, want ErrBadHole", err)
	}
	if _, err := model.FillRow([]float64{1, 2, 3}, []int{1, 1}); !errors.Is(err, ErrBadHole) {
		t.Errorf("duplicate: err = %v, want ErrBadHole", err)
	}
	if _, err := model.PredictColumn([]float64{1, 2}, 0); !errors.Is(err, ErrWidth) {
		t.Errorf("predict width: err = %v, want ErrWidth", err)
	}
	if _, err := model.PredictColumn([]float64{1, 2, 3}, 7); !errors.Is(err, ErrBadHole) {
		t.Errorf("predict target: err = %v, want ErrBadHole", err)
	}
}

func TestWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	model, err := Fit(linearFixture(rng, 50))
	if err != nil {
		t.Fatal(err)
	}
	if model.Width() != 3 {
		t.Errorf("Width = %d, want 3", model.Width())
	}
}

func TestFitCollinearFallsBack(t *testing.T) {
	// Columns 0 and 1 identical: the design is singular; the minimum-norm
	// least-squares fit must still produce a usable model.
	rng := rand.New(rand.NewSource(65))
	x := matrix.NewDense(50, 3)
	for i := 0; i < 50; i++ {
		a := rng.NormFloat64()
		x.SetRow(i, []float64{a, a, 3 * a})
	}
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.PredictColumn([]float64{2, 2, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-6) > 1e-6 {
		t.Errorf("collinear prediction = %v, want 6", got)
	}
}
