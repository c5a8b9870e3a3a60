package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ratiorules/internal/matrix"
)

func TestGE1ColAvgsKnown(t *testing.T) {
	// For col-avgs with means (0), GE1 is the RMS of the test cells.
	test := matrix.MustFromRows([][]float64{{3, -4}, {0, 0}})
	ca := NewColAvgs([]float64{0, 0})
	got, err := GE1(ca, test)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((9.0 + 16.0) / 4.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("GE1 = %v, want %v", got, want)
	}
}

func TestGE1ZeroOnPlaneData(t *testing.T) {
	// Ratio Rules reconstruct on-plane data exactly, so GE1 vanishes.
	rng := rand.New(rand.NewSource(20))
	x := planeData(rng, 100, 4, 2)
	rules := mineK(t, x, 2)
	ge, err := GE1(rules, x)
	if err != nil {
		t.Fatal(err)
	}
	if ge > 1e-6 {
		t.Errorf("GE1 = %v, want ≈ 0 on exactly low-rank data", ge)
	}
}

func TestGE1RRBeatsColAvgsOnCorrelatedData(t *testing.T) {
	// The headline claim (Fig. 7): Ratio Rules beat col-avgs when the data
	// is linearly correlated.
	rng := rand.New(rand.NewSource(21))
	x := planeData(rng, 300, 5, 2)
	for i := 0; i < 300; i++ {
		row := x.RawRow(i)
		for j := range row {
			row[j] += rng.NormFloat64() * 0.2
		}
	}
	train := x.SelectRows(seq(0, 270))
	test := x.SelectRows(seq(270, 300))
	miner, _ := NewMiner()
	rules, err := miner.MineMatrix(train)
	if err != nil {
		t.Fatal(err)
	}
	geRR, err := GE1(rules, test)
	if err != nil {
		t.Fatal(err)
	}
	geCA, err := GE1(NewColAvgs(rules.Means()), test)
	if err != nil {
		t.Fatal(err)
	}
	if geRR >= geCA/2 {
		t.Errorf("GE1(RR) = %v, GE1(col-avgs) = %v: want RR at least 2× better", geRR, geCA)
	}
}

func TestGE1Errors(t *testing.T) {
	ca := NewColAvgs([]float64{0, 0})
	if _, err := GE1(ca, matrix.NewDense(2, 3)); !errors.Is(err, ErrWidth) {
		t.Errorf("err = %v, want ErrWidth", err)
	}
	ge, err := GE1(ca, matrix.NewDense(0, 2))
	if err != nil || ge != 0 {
		t.Errorf("empty test: GE1 = %v, %v; want 0, nil", ge, err)
	}
}

func TestGEhColAvgsConstantInH(t *testing.T) {
	// The paper: "GEh is constant with respect to h for col-avgs since the
	// computation turns out to be the same for all h".
	rng := rand.New(rand.NewSource(22))
	x := planeData(rng, 40, 5, 2)
	ca := NewColAvgs(x.ColMeans())
	curve, err := GECurve(ca, x, 4, GEhConfig{SetsPerRow: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same per-cell error regardless of grouping; only the sampling of
	// hole sets varies, so allow a small relative wobble.
	for h := 1; h < len(curve); h++ {
		if math.Abs(curve[h]-curve[0]) > 0.1*curve[0] {
			t.Errorf("GEh curve for col-avgs not ≈ constant: %v", curve)
		}
	}
}

func TestGEhMatchesGE1ForSingleHole(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := planeData(rng, 30, 4, 2)
	for i := 0; i < 30; i++ {
		row := x.RawRow(i)
		for j := range row {
			row[j] += rng.NormFloat64() * 0.1
		}
	}
	rules := mineK(t, x, 2)
	ge1, err := GE1(rules, x)
	if err != nil {
		t.Fatal(err)
	}
	// h=1 with all C(4,1)=4 combinations per row is exactly GE1.
	geh, err := GEh(rules, x, GEhConfig{Holes: 1, SetsPerRow: 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ge1-geh) > 1e-12 {
		t.Errorf("GE1 = %v, GEh(h=1, exhaustive) = %v: must match", ge1, geh)
	}
}

func TestGEhStabilityOnNoisyPlane(t *testing.T) {
	// Fig. 6's shape: RR's GEh stays well below col-avgs and does not blow
	// up as h grows.
	rng := rand.New(rand.NewSource(24))
	x := planeData(rng, 200, 6, 2)
	for i := 0; i < 200; i++ {
		row := x.RawRow(i)
		for j := range row {
			row[j] += rng.NormFloat64() * 0.3
		}
	}
	train := x.SelectRows(seq(0, 180))
	test := x.SelectRows(seq(180, 200))
	miner, _ := NewMiner()
	rules, err := miner.MineMatrix(train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GEhConfig{SetsPerRow: 15, Seed: 7}
	rr, err := GECurve(rules, test, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := GECurve(NewColAvgs(rules.Means()), test, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		if rr[h] >= ca[h] {
			t.Errorf("h=%d: GEh(RR)=%v >= GEh(col-avgs)=%v", h+1, rr[h], ca[h])
		}
	}
	if rr[3] > 10*rr[0] {
		t.Errorf("GEh unstable: h=1 %v, h=4 %v", rr[0], rr[3])
	}
}

func TestGEhErrors(t *testing.T) {
	ca := NewColAvgs([]float64{0, 0})
	x := matrix.NewDense(3, 2)
	if _, err := GEh(ca, x, GEhConfig{Holes: 0}); !errors.Is(err, ErrBadHole) {
		t.Errorf("h=0: err = %v, want ErrBadHole", err)
	}
	if _, err := GEh(ca, x, GEhConfig{Holes: 3}); !errors.Is(err, ErrBadHole) {
		t.Errorf("h>M: err = %v, want ErrBadHole", err)
	}
	if _, err := GEh(ca, matrix.NewDense(2, 5), GEhConfig{Holes: 1}); !errors.Is(err, ErrWidth) {
		t.Errorf("width: err = %v, want ErrWidth", err)
	}
	ge, err := GEh(ca, matrix.NewDense(0, 2), GEhConfig{Holes: 1})
	if err != nil || ge != 0 {
		t.Errorf("empty: GEh = %v, %v; want 0, nil", ge, err)
	}
}

func TestGEhDeterministicSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	x := planeData(rng, 20, 10, 2)
	rules := mineK(t, x, 2)
	cfg := GEhConfig{Holes: 3, SetsPerRow: 5, Seed: 42}
	a, err := GEh(rules, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GEh(rules, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
	cfg.Seed = 43
	c, err := GEh(rules, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Log("different seeds coincidentally agree (allowed but unlikely)")
	}
}

func TestEnumerateAndSampleHoleSets(t *testing.T) {
	// Small space: exhaustive enumeration, C(4,2) = 6.
	sets := enumerateHoleSets(4, 2, 10)
	if len(sets) != 6 {
		t.Fatalf("got %d sets, want 6", len(sets))
	}
	seen := map[string]bool{}
	for _, s := range sets {
		if len(s) != 2 || s[0] >= s[1] {
			t.Errorf("bad combination %v", s)
		}
		key := string(rune(s[0])) + string(rune(s[1]))
		if seen[key] {
			t.Errorf("duplicate combination %v", s)
		}
		seen[key] = true
	}
	// Large space: enumeration declines, sampling returns exactly the
	// budget with all-distinct sorted sets.
	if enumerateHoleSets(20, 5, 8) != nil {
		t.Fatal("enumerateHoleSets must decline when C(m,h) exceeds the budget")
	}
	sampled := sampleHoleSets(rand.New(rand.NewSource(1)), 20, 5, 8)
	if len(sampled) != 8 {
		t.Fatalf("got %d sampled sets, want 8", len(sampled))
	}
	dedup := map[string]bool{}
	for _, s := range sampled {
		if len(s) != 5 {
			t.Errorf("sampled set %v has wrong size", s)
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Errorf("sampled set %v not sorted", s)
			}
		}
		k := fmt.Sprint(s)
		if dedup[k] {
			t.Errorf("duplicate sampled set %v", s)
		}
		dedup[k] = true
	}
}

func TestBinomialAtMost(t *testing.T) {
	if c, ok := binomialAtMost(5, 2, 100); !ok || c != 10 {
		t.Errorf("C(5,2): got %d, %v", c, ok)
	}
	if _, ok := binomialAtMost(30, 15, 100); ok {
		t.Error("C(30,15) must exceed 100")
	}
	if c, ok := binomialAtMost(3, 5, 10); !ok || c != 0 {
		t.Errorf("C(3,5): got %d, %v; want 0, true", c, ok)
	}
	if c, ok := binomialAtMost(6, 4, 100); !ok || c != 15 {
		t.Errorf("C(6,4): got %d, %v; want 15 (symmetry path)", c, ok)
	}
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func minedRulesForGE(t *testing.T, n, m int) (*Rules, *matrix.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	x := randomCorrelated(rng, n, m)
	miner, err := NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	test := randomCorrelated(rng, n/2, m)
	return rules, test
}

// GE1With is a deprecated forward: bit-identical to GE1.
func TestGE1WithMatchesGE1(t *testing.T) {
	rules, test := minedRulesForGE(t, 200, 8)
	want, err := GE1(rules, test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GE1With(rules, test, GEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("GE1With %v != GE1 %v", got, want)
	}
}

// Non-*Rules estimators take the plain GE1 path unchanged.
func TestGE1WithColAvgsFallback(t *testing.T) {
	rules, test := minedRulesForGE(t, 120, 5)
	avgs := NewColAvgs(rules.Means())
	want, err := GE1(avgs, test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GE1With(avgs, test, GEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fallback GE1With %v != GE1 %v", got, want)
	}
}

func TestGE1WithWidthMismatch(t *testing.T) {
	rules, _ := minedRulesForGE(t, 80, 4)
	rng := rand.New(rand.NewSource(1))
	wrong := randomCorrelated(rng, 10, 5)
	if _, err := GE1With(rules, wrong, GEOptions{}); err == nil {
		t.Fatal("want width-mismatch error")
	}
}
