package ratiorules_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ratiorules"
)

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// grocery builds a correlated customers × products matrix:
// milk ≈ 2 × bread, butter ≈ 0.5 × bread.
func grocery(n int, seed int64) *ratiorules.Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := ratiorules.NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		bread := 1 + rng.Float64()*9
		row := []float64{
			bread,
			2*bread + 0.1*rng.NormFloat64(),
			0.5*bread + 0.05*rng.NormFloat64(),
		}
		for j, v := range row {
			x.Set(i, j, v)
		}
	}
	return x
}

func mustMine(t *testing.T, x *ratiorules.Matrix, opts ...ratiorules.Opt) *ratiorules.Rules {
	t.Helper()
	rules, err := ratiorules.Mine(x, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func TestEndToEndMineAndFill(t *testing.T) {
	x := grocery(500, 1)
	rules := mustMine(t, x, ratiorules.AttrNames("bread", "milk", "butter"))
	if rules.K() < 1 {
		t.Fatalf("K = %d", rules.K())
	}
	// A new customer spent $4 on bread; forecast milk and butter.
	got, err := rules.FillRecord([]float64{4, ratiorules.Hole, ratiorules.Hole})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[1]-8) > 0.4 || math.Abs(got[2]-2) > 0.2 {
		t.Errorf("filled = %v, want ≈ [4 8 2]", got)
	}
}

func TestEndToEndGuessingError(t *testing.T) {
	train := grocery(500, 2)
	test := grocery(60, 3)
	rules := mustMine(t, train)
	geRR, err := ratiorules.GE1(rules, test)
	if err != nil {
		t.Fatal(err)
	}
	geCA, err := ratiorules.GE1(ratiorules.NewColAvgs(rules.Means()), test)
	if err != nil {
		t.Fatal(err)
	}
	if geRR >= geCA/3 {
		t.Errorf("GE1(RR) = %v vs col-avgs %v: want a large win on correlated data", geRR, geCA)
	}
	curve, err := ratiorules.GECurve(rules, test, 2, ratiorules.GEhConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 {
		t.Fatalf("curve = %v", curve)
	}
}

func TestEndToEndSaveLoad(t *testing.T) {
	rules := mustMine(t, grocery(200, 4))
	var buf strings.Builder
	if err := rules.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ratiorules.LoadRules(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.K() != rules.K() || back.M() != rules.M() {
		t.Error("round trip lost shape")
	}
}

func TestEndToEndStreaming(t *testing.T) {
	x := grocery(300, 5)
	rules, err := ratiorules.MineStream(ratiorules.NewMatrixSource(x))
	if err != nil {
		t.Fatal(err)
	}
	if rules.TrainedRows() != 300 {
		t.Errorf("TrainedRows = %d, want 300", rules.TrainedRows())
	}
}

func TestSentinelErrorsExported(t *testing.T) {
	rules := mustMine(t, grocery(100, 6))
	if _, err := rules.FillRow([]float64{1}, nil); !errors.Is(err, ratiorules.ErrWidth) {
		t.Errorf("err = %v, want ratiorules.ErrWidth", err)
	}
	if _, err := rules.FillRow([]float64{1, 2, 3}, []int{9}); !errors.Is(err, ratiorules.ErrBadHole) {
		t.Errorf("err = %v, want ratiorules.ErrBadHole", err)
	}
	if _, err := ratiorules.MineRows([][]float64{{1, 2, 3}}); !errors.Is(err, ratiorules.ErrTooFewRows) {
		t.Errorf("err = %v, want ratiorules.ErrTooFewRows", err)
	}
}

func TestIsHole(t *testing.T) {
	if !ratiorules.IsHole(ratiorules.Hole) || ratiorules.IsHole(1) {
		t.Error("IsHole broken")
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := ratiorules.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 1) != 4 {
		t.Errorf("At(1,1) = %v", m.At(1, 1))
	}
	if _, err := ratiorules.MatrixFromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Error("ragged rows must fail")
	}
}

func TestWhatIfThroughFacade(t *testing.T) {
	rules := mustMine(t, grocery(400, 7))
	base := rules.Means()
	out, err := rules.WhatIf(ratiorules.Scenario{Given: map[int]float64{0: 2 * base[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[1]-2*base[1]) > 0.1*base[1] {
		t.Errorf("doubling bread should double milk: got %v, want ≈ %v", out[1], 2*base[1])
	}
}

func TestOutliersThroughFacade(t *testing.T) {
	x := grocery(200, 8)
	// Corrupt one cell hard.
	x.Set(50, 1, x.At(50, 1)*10)
	rules := mustMine(t, x)
	outliers, err := rules.CellOutliers(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A corrupted cell breaks reconstruction of every cell in its row, so
	// the whole of row 50 floats to the top; the corrupted column must be
	// among the leaders.
	if len(outliers) == 0 || outliers[0].Row != 50 {
		t.Fatalf("top outlier = %+v, want row 50", outliers)
	}
	foundCol := false
	for _, o := range outliers[:minInt(3, len(outliers))] {
		if o.Row == 50 && o.Col == 1 {
			foundCol = true
		}
	}
	if !foundCol {
		t.Errorf("corrupted cell (50,1) not among the top outliers: %+v", outliers)
	}
	rows, err := rules.RowOutliers(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || rows[0].Row != 50 {
		t.Errorf("top row outlier = %+v, want row 50", rows)
	}
}
