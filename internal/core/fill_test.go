package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ratiorules/internal/matrix"
)

// planeData builds n rows lying exactly on a rank-k hyperplane in m-space
// (plus the column-mean offset), so a k-rule model can reconstruct any
// cell exactly.
func planeData(rng *rand.Rand, n, m, k int) *matrix.Dense {
	// Random orthonormal-ish basis via Gram-Schmidt on Gaussian vectors.
	basis := make([][]float64, k)
	for b := range basis {
		v := make([]float64, m)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for _, prev := range basis[:b] {
			d := matrix.Dot(v, prev)
			for j := range v {
				v[j] -= d * prev[j]
			}
		}
		matrix.Normalize(v)
		basis[b] = v
	}
	x := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		for b, v := range basis {
			w := rng.NormFloat64() * float64(10/(b+1))
			for j := range row {
				row[j] += w * v[j]
			}
		}
		for j := range row {
			row[j] += 5 * float64(j) // non-zero column means
		}
	}
	return x
}

func mineK(t *testing.T, x *matrix.Dense, k int) *Rules {
	t.Helper()
	miner, err := NewMiner(WithFixedK(k))
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func TestFillExactRecoveryOnPlane(t *testing.T) {
	// Data exactly on a rank-2 plane: hiding any 1 or 2 cells of a row must
	// recover them (over- and exactly-specified cases).
	rng := rand.New(rand.NewSource(10))
	x := planeData(rng, 120, 4, 2)
	rules := mineK(t, x, 2)
	for i := 0; i < 20; i++ {
		row := x.Row(i)
		for _, holes := range [][]int{{0}, {3}, {1, 2}, {0, 3}} {
			got, err := rules.FillRow(row, holes)
			if err != nil {
				t.Fatalf("row %d holes %v: %v", i, holes, err)
			}
			if !matrix.EqualApproxVec(got, row, 1e-6*(1+matrix.Norm2(row))) {
				t.Errorf("row %d holes %v: got %v, want %v", i, holes, got, row)
			}
		}
	}
}

func TestFillKnownCellsPassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := planeData(rng, 50, 4, 2)
	rules := mineK(t, x, 2)
	row := []float64{1, 2, 3, 4} // NOT on the plane
	got, err := rules.FillRow(row, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 2, 3} {
		if got[j] != row[j] {
			t.Errorf("known cell %d changed: %v -> %v", j, row[j], got[j])
		}
	}
	// Input row must not be mutated.
	if !matrix.EqualApproxVec(row, []float64{1, 2, 3, 4}, 0) {
		t.Error("FillRow mutated its input")
	}
}

func TestFillExactlySpecifiedFig4a(t *testing.T) {
	// M=2, k=1, h=1: Fig. 4(a). Data on the line butter = 0.58·bread; give
	// bread, recover butter at the line's intersection.
	x := matrix.NewDense(100, 2)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		b := rng.Float64() * 10
		x.SetRow(i, []float64{b, 0.58 * b})
	}
	rules := mineK(t, x, 1)
	got, err := rules.FillRow([]float64{8.5, 0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.58 * 8.5
	if math.Abs(got[1]-want) > 0.05 {
		t.Errorf("butter = %v, want ≈ %v", got[1], want)
	}
}

func TestFillPaperFig12Extrapolation(t *testing.T) {
	// The paper's Fig. 12: given $8.50 of bread on a dataset whose cloud
	// follows RR1 ≈ (0.81, 0.58), Ratio Rules predict ≈ $6.10 of butter —
	// an extrapolation beyond the training range.
	rng := rand.New(rand.NewSource(13))
	x := matrix.NewDense(200, 2)
	for i := 0; i < 200; i++ {
		v := rng.Float64() * 7 // training bread stays below 7
		x.SetRow(i, []float64{0.81 * v * 1.2345, 0.58 * v * 1.2345})
	}
	rules := mineK(t, x, 1)
	got, err := rules.FillRow([]float64{8.5, Hole}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	want := 8.5 * 0.58 / 0.81
	if math.Abs(got[1]-want) > 0.1 {
		t.Errorf("butter = %v, want ≈ %v (paper: 6.10)", got[1], want)
	}
}

func TestFillOverSpecified(t *testing.T) {
	// M=3, k=1, h=1 (Fig. 4(b)): two knowns constrain a 1-d rule; the
	// pseudo-inverse picks the closest point. With consistent data the
	// answer is exact.
	x := matrix.NewDense(100, 3)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 100; i++ {
		v := rng.NormFloat64() * 5
		x.SetRow(i, []float64{v, 2 * v, 3 * v})
	}
	rules := mineK(t, x, 1)
	got, err := rules.FillRow([]float64{1, 2, Hole}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[2]-3) > 1e-6 {
		t.Errorf("filled = %v, want 3", got[2])
	}
	// Inconsistent knowns: prediction is a least-squares compromise and
	// must stay finite and reasonable.
	got, err = rules.FillRow([]float64{1, 3, Hole}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got[2]) || got[2] < 3 || got[2] > 5.5 {
		t.Errorf("compromise fill = %v, want within (3, 5.5)", got[2])
	}
}

func TestFillUnderSpecified(t *testing.T) {
	// M=3, k=2, h=2 (Fig. 5): only 1 known, so the weakest rule is dropped
	// and the fill follows RR1 alone.
	rng := rand.New(rand.NewSource(15))
	x := planeData(rng, 200, 3, 2)
	rules := mineK(t, x, 2)
	row := x.Row(7)
	got, err := rules.FillRow(row, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != row[0] {
		t.Error("known cell changed")
	}
	// The under-specified answer uses only RR1: verify it equals the
	// explicit 1-rule reconstruction.
	rules1 := mineK(t, x, 1)
	want, err := rules1.FillRow(row, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(got, want, 1e-9*(1+matrix.Norm2(want))) {
		t.Errorf("under-specified fill = %v, want RR1-only fill %v", got, want)
	}
}

func TestFillZeroRulesIsColAvgs(t *testing.T) {
	// The paper: "col-avgs is identical to the proposed method with k = 0".
	x := paperFig1()
	rules := mineK(t, x, 0)
	ca := NewColAvgs(rules.Means())
	row := []float64{2, 1}
	for _, holes := range [][]int{{0}, {1}, {0, 1}} {
		got, err := rules.FillRow(row, holes)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ca.FillRow(row, holes)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.EqualApproxVec(got, want, 1e-12) {
			t.Errorf("holes %v: k=0 fill %v != col-avgs %v", holes, got, want)
		}
	}
}

func TestFillAllHolesGivesMeans(t *testing.T) {
	x := paperFig1()
	rules := mineK(t, x, 1)
	got, err := rules.FillRow([]float64{Hole, Hole}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(got, rules.Means(), 1e-12) {
		t.Errorf("all-holes fill = %v, want means %v", got, rules.Means())
	}
}

func TestFillNoHoles(t *testing.T) {
	x := paperFig1()
	rules := mineK(t, x, 1)
	row := []float64{1, 2}
	got, err := rules.FillRow(row, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(got, row, 0) {
		t.Errorf("no-holes fill = %v, want %v", got, row)
	}
}

func TestFillErrors(t *testing.T) {
	x := paperFig1()
	rules := mineK(t, x, 1)
	for name, tc := range map[string]struct {
		row   []float64
		holes []int
	}{
		"wrong width":    {[]float64{1}, []int{0}},
		"negative hole":  {[]float64{1, 2}, []int{-1}},
		"hole too large": {[]float64{1, 2}, []int{2}},
		"duplicate hole": {[]float64{1, 2}, []int{1, 1}},
		"too many holes": {[]float64{1, 2}, []int{0, 1, 0}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := rules.FillRow(tc.row, tc.holes); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	if _, err := rules.FillRow([]float64{1}, []int{0}); !errors.Is(err, ErrWidth) {
		t.Errorf("width: err = %v, want ErrWidth", err)
	}
	if _, err := rules.FillRow([]float64{1, 2}, []int{7}); !errors.Is(err, ErrBadHole) {
		t.Errorf("bad hole: err = %v, want ErrBadHole", err)
	}
}

func TestFillRecordNaNMarkers(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := planeData(rng, 100, 3, 1)
	rules := mineK(t, x, 1)
	row := x.Row(3)
	rec := []float64{row[0], Hole, row[2]}
	got, err := rules.FillRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[1]-row[1]) > 1e-6*(1+math.Abs(row[1])) {
		t.Errorf("FillRecord hole = %v, want %v", got[1], row[1])
	}
	if got[0] != row[0] || got[2] != row[2] {
		t.Error("FillRecord changed known cells")
	}
	// Record with no markers round-trips.
	got, err = rules.FillRecord(row)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(got, row, 0) {
		t.Error("FillRecord without holes must return the record unchanged")
	}
}

func TestIsHole(t *testing.T) {
	if !IsHole(Hole) {
		t.Error("IsHole(Hole) must be true")
	}
	if IsHole(0) || IsHole(math.Inf(1)) {
		t.Error("IsHole must be false for ordinary values")
	}
}

func TestColAvgsEstimator(t *testing.T) {
	ca := NewColAvgs([]float64{10, 20, 30})
	if ca.Width() != 3 {
		t.Fatalf("Width = %d, want 3", ca.Width())
	}
	got, err := ca.FillRow([]float64{1, 2, 3}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(got, []float64{10, 2, 30}, 0) {
		t.Errorf("FillRow = %v, want [10 2 30]", got)
	}
	if _, err := ca.FillRow([]float64{1}, []int{0}); !errors.Is(err, ErrWidth) {
		t.Errorf("err = %v, want ErrWidth", err)
	}
	if _, err := ca.FillRow([]float64{1, 2, 3}, []int{5}); !errors.Is(err, ErrBadHole) {
		t.Errorf("err = %v, want ErrBadHole", err)
	}
	// Constructor copies.
	means := []float64{1, 2}
	ca2 := NewColAvgs(means)
	means[0] = 99
	got, _ = ca2.FillRow([]float64{0, 0}, []int{0})
	if got[0] != 1 {
		t.Error("NewColAvgs must copy the means")
	}
}

// Property: filled rows lie exactly on the RR-hyperplane when every cell is
// reconstructed from the others (residual orthogonal to discarded space is
// not guaranteed, but the hole cells are linear in xconcept, so refilling
// the same holes is idempotent).
func TestFillIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(4)
		x := planeData(rng, 60, m, 2)
		miner, err := NewMiner(WithFixedK(2))
		if err != nil {
			return false
		}
		rules, err := miner.MineMatrix(x)
		if err != nil {
			return false
		}
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.NormFloat64() * 10
		}
		holes := []int{0, m - 1}
		once, err := rules.FillRow(row, holes)
		if err != nil {
			return false
		}
		twice, err := rules.FillRow(once, holes)
		if err != nil {
			return false
		}
		return matrix.EqualApproxVec(once, twice, 1e-7*(1+matrix.Norm2(once)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSortedHoles(t *testing.T) {
	in := []int{3, 1, 2}
	got := SortedHoles(in)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("SortedHoles = %v", got)
	}
	if in[0] != 3 {
		t.Error("SortedHoles must not mutate its input")
	}
}

func TestFillRecordWithBands(t *testing.T) {
	// Noisy plane: the residual band should match the injected noise scale.
	rng := rand.New(rand.NewSource(140))
	const noise = 0.5
	x := planeData(rng, 2000, 4, 2)
	for i := 0; i < x.Rows(); i++ {
		row := x.RawRow(i)
		for j := range row {
			row[j] += rng.NormFloat64() * noise
		}
	}
	rules := mineK(t, x, 2)
	rec := []float64{x.At(0, 0), Hole, x.At(0, 2), Hole}
	out, err := rules.FillRecordWithBands(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Filled) != 4 || len(out.Std) != 4 {
		t.Fatalf("shapes: %d/%d", len(out.Filled), len(out.Std))
	}
	// Known cells carry no band.
	if out.Std[0] != 0 || out.Std[2] != 0 {
		t.Errorf("known cells have bands: %v", out.Std)
	}
	// Hole bands track the injected noise scale. Only the component of
	// the noise orthogonal to the retained plane lands in the residual,
	// and it splits unevenly across attributes, so allow a wide factor.
	for _, j := range []int{1, 3} {
		if out.Std[j] < noise/4 || out.Std[j] > 2*noise {
			t.Errorf("band[%d] = %v, want within (%v, %v)", j, out.Std[j], noise/4, 2*noise)
		}
	}
}

func TestBandsZeroOnPerfectData(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	x := planeData(rng, 300, 4, 2)
	rules := mineK(t, x, 2)
	out, err := rules.FillRecordWithBands([]float64{Hole, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Std[0] > 1e-5 {
		t.Errorf("band on exactly low-rank data = %v, want ≈ 0", out.Std[0])
	}
}

func TestResidualStdPanicsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	rules := mineK(t, planeData(rng, 50, 3, 1), 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range ResidualStd must panic")
		}
	}()
	rules.ResidualStd(9)
}

func TestResidualStdSurvivesSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	x := planeData(rng, 200, 3, 1)
	for i := 0; i < 200; i++ {
		row := x.RawRow(i)
		for j := range row {
			row[j] += rng.NormFloat64() * 0.2
		}
	}
	rules := mineK(t, x, 1)
	var buf strings.Builder
	if err := rules.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if math.Abs(back.ResidualStd(j)-rules.ResidualStd(j)) > 1e-12 {
			t.Errorf("residual std %d did not round-trip", j)
		}
	}
	// Legacy documents without the field load with zero bands.
	legacy := `{"means":[0,0],"eigenvalues":[1],"vectors":[[1],[0]]}`
	lr, err := Load(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if lr.ResidualStd(0) != 0 {
		t.Error("legacy rules must report zero bands, not crash")
	}
}
