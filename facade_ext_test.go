package ratiorules_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ratiorules"
)

func TestStreamMinerThroughFacade(t *testing.T) {
	sm, err := ratiorules.NewStreamMiner(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := grocery(120, 21)
	for i := 0; i < 120; i++ {
		if err := sm.Push(x.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	rules, err := sm.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if rules.TrainedRows() != 120 {
		t.Errorf("TrainedRows = %d, want 120", rules.TrainedRows())
	}
	batch := mustMine(t, x)
	got, want := rules.Rule(0), batch.Rule(0)
	for i := range got {
		if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("streamed rule %v != batch rule %v", got, want)
		}
	}
}

func TestMineShardedThroughFacade(t *testing.T) {
	x := grocery(200, 22)
	miner, err := ratiorules.CoreMiner()
	if err != nil {
		t.Fatal(err)
	}
	half1, half2 := ratiorules.NewMatrix(100, 3), ratiorules.NewMatrix(100, 3)
	for i := 0; i < 100; i++ {
		for j := 0; j < 3; j++ {
			half1.Set(i, j, x.At(i, j))
			half2.Set(i, j, x.At(100+i, j))
		}
	}
	rules, err := miner.MineSharded([]ratiorules.RowSource{
		ratiorules.NewMatrixSource(half1),
		ratiorules.NewMatrixSource(half2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rules.TrainedRows() != 200 {
		t.Errorf("TrainedRows = %d, want 200", rules.TrainedRows())
	}
}

func TestCategoricalThroughFacade(t *testing.T) {
	enc := ratiorules.NewCategoricalEncoder([]ratiorules.Field{
		{Name: "tier", Categorical: true},
		{Name: "spend"},
	})
	rng := rand.New(rand.NewSource(23))
	var records [][]string
	for i := 0; i < 200; i++ {
		if rng.Float64() < 0.5 {
			records = append(records, []string{"gold", fmt.Sprintf("%.2f", 80+rng.Float64()*40)})
		} else {
			records = append(records, []string{"basic", fmt.Sprintf("%.2f", 5+rng.Float64()*10)})
		}
	}
	ds, err := enc.EncodeAll("tiers", records)
	if err != nil {
		t.Fatal(err)
	}
	rules := mustMine(t, ds.X, ratiorules.AttrNames(ds.Attrs...))
	// Hide the tier of a $100 spender; the rules should vote "gold".
	start, end, err := enc.FieldColumns(0)
	if err != nil {
		t.Fatal(err)
	}
	holes := make([]int, 0, end-start)
	for j := start; j < end; j++ {
		holes = append(holes, j)
	}
	filled, err := rules.FillRow([]float64{0, 0, 100}, holes)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := enc.Decode(filled)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0] != "gold" {
		t.Errorf("tier guess = %q, want gold", rec[0])
	}
}

func TestBandsThroughFacade(t *testing.T) {
	x := grocery(500, 30)
	rules := mustMine(t, x)
	out, err := rules.FillRecordWithBands([]float64{4, ratiorules.Hole, ratiorules.Hole})
	if err != nil {
		t.Fatal(err)
	}
	if out.Std[0] != 0 {
		t.Error("known cell must carry no band")
	}
	for _, j := range []int{1, 2} {
		if out.Std[j] <= 0 {
			t.Errorf("band[%d] = %v, want positive on noisy data", j, out.Std[j])
		}
	}
	// The band is the projection residual, a lower bound when most of the
	// record is hidden (see FillRecordWithBands); with 2 of 3 cells hidden
	// the 2-sigma band still covers a clear majority of errors.
	test := grocery(200, 31)
	covered, total := 0, 0
	for i := 0; i < 200; i++ {
		truth := test.Row(i)
		rec := []float64{truth[0], ratiorules.Hole, ratiorules.Hole}
		bf, err := rules.FillRecordWithBands(rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []int{1, 2} {
			total++
			diff := bf.Filled[j] - truth[j]
			if diff < 0 {
				diff = -diff
			}
			if diff <= 2*bf.Std[j] {
				covered++
			}
		}
	}
	if frac := float64(covered) / float64(total); frac < 0.55 {
		t.Errorf("2-sigma coverage = %v, want >= 0.55", frac)
	}
}
