package stats

import (
	"math"
	"math/rand"
	"testing"
)

// relDiff is the difference of a and b relative to the larger magnitude,
// absolute below 1.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if scale := math.Max(math.Abs(a), math.Abs(b)); scale > 1 {
		return d / scale
	}
	return d
}

// Differential test pinning the assembly kernel to the portable oracle
// across awkward widths and row counts (covers every tail path).
func TestCrossAccumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 31, 32, 33} {
		for _, n := range []int{1, 2, 3, 17} {
			flat := make([]float64, n*m)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			got := make([]float64, m*m)
			want := make([]float64, m*m)
			crossAccum(got, flat, n, m)
			crossAccumGo(want, flat, n, m)
			for i := range got {
				if d := relDiff(got[i], want[i]); d > 1e-12 {
					t.Fatalf("m=%d n=%d: cell %d: %v vs %v (rel %g)", m, n, i, got[i], want[i], d)
				}
			}
		}
	}
}

// The vectorized finite scan must agree with the portable one on every
// position and length, for each kind of bad value.
func TestAllFiniteMatchesOracle(t *testing.T) {
	bads := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 33} {
		flat := make([]float64, n)
		for i := range flat {
			flat[i] = float64(i) - 1.5
		}
		if !AllFinite(flat) || !allFiniteGo(flat) {
			t.Fatalf("n=%d: clean slice reported non-finite", n)
		}
		for pos := 0; pos < n; pos++ {
			for _, bad := range bads {
				saved := flat[pos]
				flat[pos] = bad
				if AllFinite(flat) {
					t.Fatalf("n=%d pos=%d bad=%v: asm scan missed it", n, pos, bad)
				}
				if allFiniteGo(flat) {
					t.Fatalf("n=%d pos=%d bad=%v: Go scan missed it", n, pos, bad)
				}
				flat[pos] = saved
			}
		}
	}
	if !AllFinite(nil) {
		t.Fatal("empty slice must be all-finite")
	}
}
