package core

import (
	"math/rand"
	"testing"

	"ratiorules/internal/matrix"
)

func TestLanczosSolverWithEnergyCutoff(t *testing.T) {
	// MaxK bounds the extraction; the Eq. 1 cutoff applies within it,
	// using the trace as the total.
	rng := rand.New(rand.NewSource(86))
	x := matrix.NewDense(400, 6)
	for i := 0; i < 400; i++ {
		v := rng.NormFloat64() * 10
		row := x.RawRow(i)
		for j := range row {
			row[j] = v*float64(j+1) + rng.NormFloat64()*0.01
		}
	}
	sub, err := NewMiner(WithMaxK(4), WithLanczosSolver())
	if err != nil {
		t.Fatal(err)
	}
	rules, err := sub.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if rules.K() != 1 {
		t.Errorf("K = %d, want 1 for near-rank-1 data", rules.K())
	}
	if rules.EnergyCovered() < 0.85 {
		t.Errorf("EnergyCovered = %v, want >= 0.85", rules.EnergyCovered())
	}
}

func TestLanczosSolverRequiresBound(t *testing.T) {
	sub, err := NewMiner(WithLanczosSolver())
	if err != nil {
		t.Fatal(err)
	}
	x := randomCorrelated(rand.New(rand.NewSource(87)), 50, 4)
	if _, err := sub.MineMatrix(x); err == nil {
		t.Error("Lanczos solver without a k bound must fail")
	}
}

func TestLanczosSolverFixedKZero(t *testing.T) {
	sub, err := NewMiner(WithFixedK(0), WithLanczosSolver())
	if err != nil {
		t.Fatal(err)
	}
	x := randomCorrelated(rand.New(rand.NewSource(88)), 50, 4)
	rules, err := sub.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if rules.K() != 0 {
		t.Errorf("K = %d, want 0", rules.K())
	}
	if rules.TotalVariance() <= 0 {
		t.Error("total variance (trace) must still be recorded")
	}
	// k=0 fill degenerates to means.
	got, err := rules.FillRow([]float64{0, 0, 0, 0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != rules.Means()[1] {
		t.Errorf("k=0 fill = %v, want mean %v", got[1], rules.Means()[1])
	}
}

func TestLanczosSolverMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	x := randomCorrelated(rng, 300, 8)
	full, err := NewMiner(WithFixedK(3))
	if err != nil {
		t.Fatal(err)
	}
	lz, err := NewMiner(WithFixedK(3), WithLanczosSolver())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := full.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := lz.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 + rf.Eigenvalues()[0]
	if !matrix.EqualApproxVec(rl.Eigenvalues(), rf.Eigenvalues(), 1e-6*scale) {
		t.Errorf("eigenvalues differ:\nfull    %v\nlanczos %v", rf.Eigenvalues(), rl.Eigenvalues())
	}
	for i := 0; i < 3; i++ {
		if !matrix.EqualApproxVec(rl.Rule(i), rf.Rule(i), 1e-6) {
			t.Errorf("rule %d differs", i)
		}
	}
}
