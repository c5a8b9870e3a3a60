package ratiorules_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ratiorules"
)

// TestFacadeWrappers exercises every thin delegation of the public facade
// so a drifting signature or a broken re-export is caught at the package
// boundary, not by a downstream user.
func TestFacadeWrappers(t *testing.T) {
	x := grocery(300, 40)

	// The mining setters, lowered onto the core Miner.
	miner, err := ratiorules.CoreMiner(
		ratiorules.Energy(0.9),
		ratiorules.MaxK(2),
		ratiorules.AttrNames("bread", "milk", "butter"),
	)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if rules.K() < 1 || rules.K() > 2 {
		t.Fatalf("K = %d", rules.K())
	}

	// GEh through the facade.
	geh, err := ratiorules.GEh(rules, x, ratiorules.GEhConfig{Holes: 2, SetsPerRow: 3})
	if err != nil {
		t.Fatal(err)
	}
	if geh <= 0 {
		t.Errorf("GEh = %v", geh)
	}

	// Sparse helpers.
	sv, err := ratiorules.NewSparseVec(3, []int{1}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if sv.At(1) != 2 {
		t.Errorf("sparse At = %v", sv.At(1))
	}
	if got := ratiorules.SparsifyRow([]float64{0, 5, 0}, 0); got.NNZ() != 1 {
		t.Errorf("SparsifyRow NNZ = %d", got.NNZ())
	}

	// Weighted mining through the facade.
	wm, err := ratiorules.CoreMiner()
	if err != nil {
		t.Fatal(err)
	}
	wrules, err := wm.MineWeighted(&ratiorules.WeightedSliceSource{
		Rows: []ratiorules.WeightedRow{
			{Row: []float64{1, 2}, Weight: 3},
			{Row: []float64{2, 4}, Weight: 2},
			{Row: []float64{3, 6}, Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wrules.TrainedRows() != 6 {
		t.Errorf("weighted TrainedRows = %d, want 6", wrules.TrainedRows())
	}

	// EM mining through the facade.
	holed := x.Clone()
	holed.Set(3, 1, ratiorules.Hole)
	em, err := wm.MineWithHoles(holed, ratiorules.EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !em.Converged {
		t.Error("EM did not converge on near-perfect data")
	}

	// Robust mining through the facade.
	rr, err := wm.MineRobust(x, ratiorules.RobustConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Rules == nil {
		t.Error("robust mining returned nil rules")
	}

	// Interpret + ResidualStd through the facade.
	readings := rules.Interpret(0)
	if len(readings) != rules.K() {
		t.Errorf("readings = %d, want %d", len(readings), rules.K())
	}
	if rules.ResidualStd(0) < 0 {
		t.Error("negative residual std")
	}

	// Projection through the facade.
	proj, err := rules.Project(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Rows() != 300 {
		t.Errorf("projection rows = %d", proj.Rows())
	}
}

func TestFacadeStreamCheckpoint(t *testing.T) {
	sm, err := ratiorules.NewStreamMiner(2, 0, ratiorules.AttrNames("x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := sm.Push([]float64{float64(i), 2 * float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := sm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ratiorules.LoadStreamMiner(strings.NewReader(buf.String()), ratiorules.FixedK(1))
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != 10 {
		t.Errorf("Count = %d, want 10", back.Count())
	}
	rules, err := back.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if rules.K() != 1 {
		t.Errorf("restored K = %d, want the FixedK(1) the load was given", rules.K())
	}
	if _, err := ratiorules.LoadStreamMiner(strings.NewReader(buf.String()), ratiorules.AttrNames("x")); !errors.Is(err, ratiorules.ErrWidth) {
		t.Errorf("one name for width 2: err = %v, want ErrWidth", err)
	}
	rr1 := rules.Rule(0)
	if math.Abs(rr1[1]/rr1[0]-2) > 1e-9 {
		t.Errorf("restored slope = %v, want 2", rr1[1]/rr1[0])
	}
}
