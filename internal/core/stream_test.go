package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"ratiorules/internal/matrix"
	"ratiorules/internal/stats"
)

func TestStreamMinerEqualsBatchWithoutDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	x := randomCorrelated(rng, 250, 5)
	sm, err := NewStreamMiner(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows(); i++ {
		if err := sm.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := sm.Rules()
	if err != nil {
		t.Fatal(err)
	}
	miner, _ := NewMiner()
	batch, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.K() != batch.K() {
		t.Fatalf("K = %d, want %d", streamed.K(), batch.K())
	}
	if !matrix.EqualApproxVec(streamed.Means(), batch.Means(), 1e-9) {
		t.Error("means differ")
	}
	if !matrix.EqualApproxVec(streamed.Eigenvalues(), batch.Eigenvalues(),
		1e-6*(1+batch.Eigenvalues()[0])) {
		t.Error("eigenvalues differ")
	}
	if sm.Count() != 250 {
		t.Errorf("Count = %d, want 250", sm.Count())
	}
}

func TestStreamMinerRulesRepeatedly(t *testing.T) {
	// Rules() must be callable mid-stream without disturbing the sums.
	rng := rand.New(rand.NewSource(81))
	x := randomCorrelated(rng, 100, 4)
	sm, err := NewStreamMiner(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := sm.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	mid, err := sm.Rules()
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 100; i++ {
		if err := sm.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	final, err := sm.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if mid.TrainedRows() != 50 || final.TrainedRows() != 100 {
		t.Errorf("TrainedRows = %d/%d, want 50/100", mid.TrainedRows(), final.TrainedRows())
	}
	// Final must equal a fresh batch mine of all 100 rows.
	miner, _ := NewMiner()
	batch, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(final.Means(), batch.Means(), 1e-9) {
		t.Error("mid-stream Rules() disturbed the sums")
	}
}

func TestStreamMinerDecayTracksDrift(t *testing.T) {
	// First 2000 rows follow ratio y = x; the next 2000 follow y = 3x.
	// With decay, the mined ratio must track the new regime; without, it
	// lands in between.
	mkRow := func(rng *rand.Rand, slope float64) []float64 {
		v := 1 + rng.Float64()*9
		return []float64{v, slope * v}
	}
	run := func(lambda float64) float64 {
		rng := rand.New(rand.NewSource(82))
		sm, err := NewStreamMiner(2, lambda)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if err := sm.Push(mkRow(rng, 1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			if err := sm.Push(mkRow(rng, 3)); err != nil {
				t.Fatal(err)
			}
		}
		rules, err := sm.Rules()
		if err != nil {
			t.Fatal(err)
		}
		rr1 := rules.Rule(0)
		return rr1[1] / rr1[0] // mined slope
	}
	decayed := run(0.01)
	flat := run(0)
	if math.Abs(decayed-3) > 0.15 {
		t.Errorf("decayed slope = %v, want ≈ 3 (tracking the new regime)", decayed)
	}
	// Without decay the axis is steered by the between-regime direction
	// (the two half-streams form separate clusters), landing well away
	// from the current regime's slope.
	if math.Abs(flat-3) < 0.5 {
		t.Errorf("undecayed slope = %v, should NOT track the new regime", flat)
	}
}

func TestStreamMinerValidation(t *testing.T) {
	if _, err := NewStreamMiner(0, 0); !errors.Is(err, ErrWidth) {
		t.Errorf("zero width: err = %v, want ErrWidth", err)
	}
	if _, err := NewStreamMiner(2, -0.1); err == nil {
		t.Error("negative decay must fail")
	}
	if _, err := NewStreamMiner(2, 1); err == nil {
		t.Error("decay = 1 must fail")
	}
	if _, err := NewStreamMiner(2, math.NaN()); err == nil {
		t.Error("NaN decay must fail")
	}
	if _, err := NewStreamMiner(2, 0, WithEnergy(-1)); err == nil {
		t.Error("bad option must fail")
	}
	if _, err := NewStreamMiner(2, 0, WithAttrNames([]string{"a"})); !errors.Is(err, ErrWidth) {
		t.Errorf("attr mismatch: err = %v, want ErrWidth", err)
	}
	sm, err := NewStreamMiner(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Push([]float64{1}); !errors.Is(err, ErrWidth) {
		t.Errorf("short row: err = %v, want ErrWidth", err)
	}
	if err := sm.Push([]float64{1, math.NaN()}); !errors.Is(err, stats.ErrBadValue) {
		t.Errorf("NaN row: err = %v, want ErrBadValue", err)
	}
	if _, err := sm.Rules(); err == nil {
		t.Error("Rules with <2 rows must fail")
	}
}

func TestMinerRejectsNaNRows(t *testing.T) {
	miner, _ := NewMiner()
	x := matrix.MustFromRows([][]float64{{1, 2}, {math.Inf(1), 4}})
	if _, err := miner.MineMatrix(x); !errors.Is(err, stats.ErrBadValue) {
		t.Errorf("err = %v, want ErrBadValue", err)
	}
}

// Clone is the republish snapshot: its rules must equal those of the
// Save→LoadStreamMiner copy it replaced bit for bit, and pushes to the
// original after cloning must not reach the clone.
func TestStreamMinerCloneMatchesSaveLoad(t *testing.T) {
	for _, decay := range []float64{0, 0.05} {
		rng := rand.New(rand.NewSource(31))
		x := planeData(rng, 120, 6, 2)
		sm, err := NewStreamMiner(6, decay)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := sm.Push(x.RawRow(i)); err != nil {
				t.Fatal(err)
			}
		}
		clone := sm.Clone()
		var buf bytes.Buffer
		if err := sm.Save(&buf); err != nil {
			t.Fatal(err)
		}
		for i := 100; i < 120; i++ {
			if err := sm.Push(x.RawRow(i)); err != nil {
				t.Fatal(err)
			}
		}
		loaded, err := LoadStreamMiner(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if clone.Count() != 100 {
			t.Fatalf("decay %v: clone saw %d rows, want 100", decay, clone.Count())
		}
		got, err := clone.Rules()
		if err != nil {
			t.Fatal(err)
		}
		want, err := loaded.Rules()
		if err != nil {
			t.Fatal(err)
		}
		var gb, wb bytes.Buffer
		if err := got.Save(&gb); err != nil {
			t.Fatal(err)
		}
		if err := want.Save(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("decay %v: clone rules differ from Save→Load rules:\n%s\n%s", decay, gb.Bytes(), wb.Bytes())
		}
	}
}
