package ratiorules_test

import (
	"errors"
	"math"
	"testing"

	ratiorules "ratiorules"
)

// y ≈ 2x training data for the options-API tests. The small
// deterministic jitter keeps the residual bands non-degenerate so the
// outlier path has something to score against.
func optionRows() [][]float64 {
	rows := make([][]float64, 40)
	for i := range rows {
		x := float64(i + 1)
		rows[i] = []float64{x, 2*x + 0.2*math.Sin(float64(i))}
	}
	return rows
}

func TestMineWithOptions(t *testing.T) {
	rules, err := ratiorules.MineRows(optionRows(),
		ratiorules.Energy(0.99),
		ratiorules.MaxK(1),
		ratiorules.AttrNames("x", "y"))
	if err != nil {
		t.Fatalf("MineRows: %v", err)
	}
	if rules.K() != 1 {
		t.Fatalf("K = %d, want 1", rules.K())
	}
	if names := rules.AttrNames(); len(names) != 2 || names[0] != "x" {
		t.Fatalf("AttrNames = %v", names)
	}

	x, err := ratiorules.MatrixFromRows(optionRows())
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	fromMatrix, err := ratiorules.Mine(x, ratiorules.FixedK(1))
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if fromMatrix.K() != 1 {
		t.Fatalf("Mine FixedK: K = %d, want 1", fromMatrix.K())
	}

	stream, err := ratiorules.MineStream(
		ratiorules.NewMatrixSource(x), ratiorules.Energy(0.99))
	if err != nil {
		t.Fatalf("MineStream: %v", err)
	}
	if stream.K() == 0 {
		t.Fatal("MineStream: no rules")
	}

	// CoreMiner lowers the same Opt setters onto the Miner surface.
	miner, err := ratiorules.CoreMiner(ratiorules.FixedK(1))
	if err != nil {
		t.Fatalf("CoreMiner: %v", err)
	}
	viaMiner, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatalf("CoreMiner mine: %v", err)
	}
	if viaMiner.K() != 1 {
		t.Fatalf("CoreMiner FixedK: K = %d, want 1", viaMiner.K())
	}
}

func TestMineRejectsBadOptions(t *testing.T) {
	// Zero selects a default; every other out-of-range value fails.
	for _, tc := range []struct {
		name string
		opt  ratiorules.Opt
	}{
		{"Energy(1.5)", ratiorules.Energy(1.5)},
		{"Energy(-0.5)", ratiorules.Energy(-0.5)},
		{"MaxK(-3)", ratiorules.MaxK(-3)},
	} {
		if _, err := ratiorules.MineRows(optionRows(), tc.opt); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := ratiorules.MineRows(nil); err == nil {
		t.Fatal("empty data accepted")
	}
}

func TestFillWithOptions(t *testing.T) {
	rules, err := ratiorules.MineRows(optionRows())
	if err != nil {
		t.Fatalf("MineRows: %v", err)
	}

	// Explicit holes.
	got, err := ratiorules.Fill(rules, []float64{4, 0}, []int{1})
	if err != nil {
		t.Fatalf("Fill: %v", err)
	}
	if math.Abs(got[1]-8) > 0.5 {
		t.Fatalf("Fill([4, _]) = %v, want y near 8", got)
	}

	// Holes derived from markers.
	got, err = ratiorules.Fill(rules, []float64{4, ratiorules.Hole}, nil)
	if err != nil {
		t.Fatalf("Fill with markers: %v", err)
	}
	if math.Abs(got[1]-8) > 0.5 {
		t.Fatalf("Fill([4, Hole]) = %v, want y near 8", got)
	}

	if _, err := ratiorules.Fill(rules, []float64{4, 0}, []int{7}); !errors.Is(err, ratiorules.ErrBadHole) {
		t.Fatalf("bad hole error = %v, want ErrBadHole", err)
	}
}

func TestBatchFacade(t *testing.T) {
	rules, err := ratiorules.MineRows(optionRows())
	if err != nil {
		t.Fatalf("MineRows: %v", err)
	}

	rows := [][]float64{{3, 0}, {10, 0}, {1, 2, 3}}
	holes := [][]int{{1}, {1}, {1}}
	res := ratiorules.BatchFill(rules, rows, holes, ratiorules.Workers(2))
	if len(res) != 3 {
		t.Fatalf("BatchFill results = %d, want 3", len(res))
	}
	if res[0].Err != nil || math.Abs(res[0].Filled[1]-6) > 0.5 {
		t.Fatalf("row 0: %+v", res[0])
	}
	if res[1].Err != nil || math.Abs(res[1].Filled[1]-20) > 1 {
		t.Fatalf("row 1: %+v", res[1])
	}
	if !errors.Is(res[2].Err, ratiorules.ErrWidth) {
		t.Fatalf("row 2 err = %v, want ErrWidth", res[2].Err)
	}

	fc := ratiorules.BatchForecast(rules,
		[]ratiorules.ForecastJob{{Given: map[int]float64{0: 5}, Target: 1}})
	if fc[0].Err != nil || math.Abs(fc[0].Value-10) > 0.5 {
		t.Fatalf("BatchForecast: %+v", fc[0])
	}

	out := ratiorules.BatchOutliers(rules,
		[][]float64{{3, 6}, {3, 60}}, ratiorules.Sigma(3))
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("BatchOutliers errs: %v, %v", out[0].Err, out[1].Err)
	}
	if len(out[0].Outliers) != 0 {
		t.Fatalf("clean row flagged: %+v", out[0].Outliers)
	}
	if len(out[1].Outliers) == 0 {
		t.Fatal("corrupted row not flagged")
	}
}

func TestCleanFillsHoles(t *testing.T) {
	rules, err := ratiorules.MineRows(optionRows())
	if err != nil {
		t.Fatalf("MineRows: %v", err)
	}
	x, err := ratiorules.MatrixFromRows([][]float64{
		{3, ratiorules.Hole},
		{5, 10},
		{ratiorules.Hole, 14},
	})
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	n, err := ratiorules.Clean(rules, x)
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if n != 2 {
		t.Fatalf("Clean filled %d cells, want 2", n)
	}
	if got := x.At(0, 1); math.Abs(got-6) > 0.5 {
		t.Fatalf("x[0][1] = %v, want near 6", got)
	}
	if got := x.At(2, 0); math.Abs(got-7) > 0.5 {
		t.Fatalf("x[2][0] = %v, want near 7", got)
	}
	if got := x.At(1, 0); got != 5 {
		t.Fatalf("untouched cell changed: %v", got)
	}
}
