package core

import (
	"math"
	"testing"

	"ratiorules/internal/dataset"
	"ratiorules/internal/eigen"
	"ratiorules/internal/matrix"
	"ratiorules/internal/quest"
	"ratiorules/internal/stats"
)

// TestLeadingSolveMatchesSymEig: the miner solves for only the k
// vectors the cutoff selects (eigen.SymEigLeading). Against rules built
// from the full SymEig of the same scatter, k, the eigenvalues and the
// total variance are bit-identical, and each rule matches within 1e-10
// per cell, or, where eigenvalues sit within 1e-4·λ₁ of each other,
// their invariant subspace does (projector cells within 1e-10). Each
// data set is mined at the default cutoff (k = 14 on Quest, 1 on the
// others) and with every rule kept.
func TestLeadingSolveMatchesSymEig(t *testing.T) {
	src, err := quest.NewSource(quest.DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	questX := matrix.NewDense(20000, src.Width())
	for i := 0; i < questX.Rows(); i++ {
		row, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		questX.SetRow(i, row)
	}
	for _, tc := range []struct {
		name string
		x    *matrix.Dense
	}{
		{"quest", questX},
		{"nba", dataset.NBA().X},
		{"baseball", dataset.Baseball().X},
		{"abalone", dataset.Abalone().X},
	} {
		for _, opts := range [][]Option{nil, {WithFixedK(tc.x.Cols())}} {
			name := tc.name
			if opts != nil {
				name += "/all"
			}
			t.Run(name, func(t *testing.T) { compareWithSymEig(t, tc.x, opts) })
		}
	}
}

// compareWithSymEig mines x with opts and holds the rules to ones built
// from SymEig, as TestLeadingSolveMatchesSymEig describes.
func compareWithSymEig(t *testing.T, x *matrix.Dense, opts []Option) {
	miner, err := NewMiner(opts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	acc := stats.NewCovAccumulator(x.Cols())
	if err := pushRows(NewMatrixSource(x), acc); err != nil {
		t.Fatal(err)
	}
	scatter, err := acc.Scatter()
	if err != nil {
		t.Fatal(err)
	}
	means, err := acc.Means()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eigen.SymEig(scatter)
	if err != nil {
		t.Fatal(err)
	}
	total := clampPSD(sys.Values)
	want := miner.rulesFromSystem(scatter, means, acc.Count(), sys, total, miner.chooseK(sys.Values, total))

	if got.K() != want.K() || got.K() == 0 {
		t.Fatalf("k = %d, SymEig's rules keep %d", got.K(), want.K())
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.TotalVariance(), want.TotalVariance()) || !same(got.EnergyCovered(), want.EnergyCovered()) {
		t.Errorf("total variance %v, energy %v; SymEig's %v, %v",
			got.TotalVariance(), got.EnergyCovered(), want.TotalVariance(), want.EnergyCovered())
	}
	for i, l := range want.Eigenvalues() {
		if !same(got.Eigenvalues()[i], l) {
			t.Errorf("eigenvalue %d = %v, SymEig %v", i, got.Eigenvalues()[i], l)
		}
	}
	vals := want.Eigenvalues()
	for lo := 0; lo < len(vals); {
		hi := lo + 1
		for hi < len(vals) && vals[hi-1]-vals[hi] <= 1e-4*vals[0] {
			hi++
		}
		if d := subspaceDiff(got, want, lo, hi); d > 1e-10 {
			t.Errorf("rules %d..%d differ from SymEig's by %g", lo, hi-1, d)
		}
		lo = hi
	}
}

// subspaceDiff returns the largest cell difference between the two rule
// sets' rules lo..hi-1: of the rule itself, up to sign, for a single one,
// else of the projector onto their span.
func subspaceDiff(a, b *Rules, lo, hi int) float64 {
	var worst float64
	if hi-lo == 1 {
		x, y := a.Rule(lo), b.Rule(lo)
		sign := 1.0
		if matrix.Dot(x, y) < 0 {
			sign = -1
		}
		for j := range x {
			worst = math.Max(worst, math.Abs(x[j]-sign*y[j]))
		}
		return worst
	}
	m := a.M()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var pa, pb float64
			for c := lo; c < hi; c++ {
				pa += a.v.At(i, c) * a.v.At(j, c)
				pb += b.v.At(i, c) * b.v.At(j, c)
			}
			worst = math.Max(worst, math.Abs(pa-pb))
		}
	}
	return worst
}
