package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ratiorules/internal/eigen"
	"ratiorules/internal/matrix"
	"ratiorules/internal/stats"
)

// paperFig1 is the literal 5-customer bread/butter table of the paper's
// Fig. 1 (columns: bread, butter).
func paperFig1() *matrix.Dense {
	return matrix.MustFromRows([][]float64{
		{0.89, 0.49},
		{3.34, 1.85},
		{5.00, 3.09},
		{1.78, 0.99},
		{4.02, 2.61},
	})
}

func TestPaperFigure1(t *testing.T) {
	// The paper states eigensystem analysis identifies (0.866, 0.5) as the
	// best axis for this table, i.e. the rule bread:butter ≈ 0.866:0.5.
	// The table values come from an imperfect transcription of Fig. 1, so
	// the assertion uses a loose band around the published direction.
	miner, err := NewMiner(WithFixedK(1), WithAttrNames([]string{"bread", "butter"}))
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(paperFig1())
	if err != nil {
		t.Fatal(err)
	}
	rr1 := rules.Rule(0)
	if math.Abs(rr1[0]-0.866) > 0.06 || math.Abs(rr1[1]-0.5) > 0.06 {
		t.Errorf("RR1 = %v, want ≈ (0.866, 0.5)", rr1)
	}
	a, b := rules.Ratio(0, 0, 1)
	if a != rr1[0] || b != rr1[1] {
		t.Errorf("Ratio = %v:%v, want %v:%v", a, b, rr1[0], rr1[1])
	}
}

func TestMinerEnergyCutoff(t *testing.T) {
	// Strongly rank-1 data: first eigenvalue dominates, so the 85% cutoff
	// must retain exactly one rule.
	rng := rand.New(rand.NewSource(1))
	x := matrix.NewDense(200, 4)
	for i := 0; i < 200; i++ {
		v := rng.NormFloat64() * 10
		row := x.RawRow(i)
		for j := range row {
			row[j] = v*float64(j+1) + rng.NormFloat64()*0.01
		}
	}
	miner, err := NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if rules.K() != 1 {
		t.Errorf("K = %d, want 1 for near-rank-1 data", rules.K())
	}
	if got := rules.EnergyCovered(); got < 0.85 {
		t.Errorf("EnergyCovered = %v, want >= 0.85", got)
	}
	if rules.TrainedRows() != 200 {
		t.Errorf("TrainedRows = %d, want 200", rules.TrainedRows())
	}
}

func TestMinerEnergyCutoffWhiteNoise(t *testing.T) {
	// Isotropic noise spreads energy evenly: 85% of 6 dims needs 6·0.85
	// rounded up... at least 5 rules.
	rng := rand.New(rand.NewSource(2))
	x := matrix.NewDense(500, 6)
	for i := 0; i < 500; i++ {
		row := x.RawRow(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	miner, _ := NewMiner()
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if rules.K() < 5 {
		t.Errorf("K = %d, want >= 5 for isotropic data", rules.K())
	}
}

func TestMinerFixedAndMaxK(t *testing.T) {
	x := randomCorrelated(rand.New(rand.NewSource(3)), 100, 5)
	for _, tc := range []struct {
		name string
		opts []Option
		want int
	}{
		{"fixed 3", []Option{WithFixedK(3)}, 3},
		{"fixed 0", []Option{WithFixedK(0)}, 0},
		{"fixed beyond M", []Option{WithFixedK(99)}, 5},
		{"max 1", []Option{WithEnergy(0.9999), WithMaxK(1)}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			miner, err := NewMiner(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			rules, err := miner.MineMatrix(x)
			if err != nil {
				t.Fatal(err)
			}
			if rules.K() != tc.want {
				t.Errorf("K = %d, want %d", rules.K(), tc.want)
			}
		})
	}
}

func TestMinerOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"zero energy", WithEnergy(0)},
		{"energy above 1", WithEnergy(1.5)},
		{"negative fixed k", WithFixedK(-1)},
		{"zero max k", WithMaxK(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewMiner(tc.opt); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestMinerAttrNameWidthCheck(t *testing.T) {
	miner, err := NewMiner(WithAttrNames([]string{"a", "b", "c"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := miner.MineMatrix(paperFig1()); !errors.Is(err, ErrWidth) {
		t.Errorf("err = %v, want ErrWidth", err)
	}
}

func TestMinerTooFewRows(t *testing.T) {
	miner, _ := NewMiner()
	if _, err := miner.MineMatrix(matrix.MustFromRows([][]float64{{1, 2}})); err == nil {
		t.Error("mining one row must fail")
	}
	if _, err := miner.MineMatrix(matrix.NewDense(0, 0)); !errors.Is(err, ErrWidth) {
		t.Errorf("zero-width source: err = %v, want ErrWidth", err)
	}
}

func TestMinerJacobiAgreesWithDefault(t *testing.T) {
	x := randomCorrelated(rand.New(rand.NewSource(4)), 150, 6)
	def, _ := NewMiner(WithFixedK(3))
	r1, err := def.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	scatter, _ := stats.ScatterTwoPass(x)
	jac, err := eigen.Jacobi(scatter)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(r1.Eigenvalues(), jac.Values[:3], 1e-6*(1+r1.Eigenvalues()[0])) {
		t.Errorf("eigenvalues differ: %v vs %v", r1.Eigenvalues(), jac.Values[:3])
	}
	for i := 0; i < 3; i++ {
		if !matrix.EqualApproxVec(r1.Rule(i), jac.Vectors.Col(i), 1e-6) {
			t.Errorf("rule %d differs: %v vs %v", i, r1.Rule(i), jac.Vectors.Col(i))
		}
	}
}

// errSource fails after two rows, exercising the error path of Mine.
type errSource struct{ n int }

func (s *errSource) Width() int { return 2 }
func (s *errSource) Next() ([]float64, error) {
	if s.n >= 2 {
		return nil, errors.New("disk on fire")
	}
	s.n++
	return []float64{1, 2}, nil
}

func TestMinerSourceError(t *testing.T) {
	miner, _ := NewMiner()
	_, err := miner.Mine(&errSource{})
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("err = %v, want wrapped source error", err)
	}
}

func TestMatrixSource(t *testing.T) {
	m := paperFig1()
	src := NewMatrixSource(m)
	if src.Width() != 2 {
		t.Fatalf("Width = %d, want 2", src.Width())
	}
	count := 0
	for {
		row, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != 2 {
			t.Fatalf("row %d has width %d", count, len(row))
		}
		count++
	}
	if count != 5 {
		t.Errorf("iterated %d rows, want 5", count)
	}
}

func TestMiningStreamEqualsInMemory(t *testing.T) {
	// The single-pass streaming path and the in-memory convenience must
	// produce identical rules.
	x := randomCorrelated(rand.New(rand.NewSource(5)), 80, 4)
	miner, _ := NewMiner()
	r1, err := miner.Mine(NewMatrixSource(x))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if r1.K() != r2.K() {
		t.Fatalf("K differs: %d vs %d", r1.K(), r2.K())
	}
	if !matrix.EqualApproxVec(r1.Means(), r2.Means(), 0) {
		t.Error("means differ")
	}
	if !matrix.EqualApprox(r1.Vectors(), r2.Vectors(), 0) {
		t.Error("vectors differ")
	}
}

func TestRulesAccessors(t *testing.T) {
	miner, _ := NewMiner(WithFixedK(2), WithAttrNames([]string{"bread", "butter"}))
	rules, err := miner.MineMatrix(paperFig1())
	if err != nil {
		t.Fatal(err)
	}
	if rules.M() != 2 {
		t.Errorf("M = %d, want 2", rules.M())
	}
	if got := rules.AttrName(0); got != "bread" {
		t.Errorf("AttrName(0) = %q, want bread", got)
	}
	if got := rules.AttrName(9); got != "attr9" {
		t.Errorf("AttrName(9) = %q, want attr9 fallback", got)
	}
	names := rules.AttrNames()
	names[0] = "mutated"
	if rules.AttrName(0) != "bread" {
		t.Error("AttrNames must return a copy")
	}
	mu := rules.Means()
	mu[0] = -1
	if rules.Means()[0] == -1 {
		t.Error("Means must return a copy")
	}
	ev := rules.Eigenvalues()
	if len(ev) != 2 || ev[0] < ev[1] {
		t.Errorf("Eigenvalues = %v, want 2 descending values", ev)
	}
	ev[0] = -1
	if rules.Eigenvalues()[0] == -1 {
		t.Error("Eigenvalues must return a copy")
	}
	if rules.TotalVariance() <= 0 {
		t.Error("TotalVariance must be positive")
	}
	s := rules.String()
	if !strings.Contains(s, "bread") || !strings.Contains(s, "RR1") {
		t.Errorf("String() = %q, want table with attribute names and rule headers", s)
	}
}

func TestRulePanicsOutOfRange(t *testing.T) {
	miner, _ := NewMiner(WithFixedK(1))
	rules, err := miner.MineMatrix(paperFig1())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Rule(5) must panic")
		}
	}()
	rules.Rule(5)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	miner, _ := NewMiner(WithFixedK(2), WithAttrNames([]string{"bread", "butter"}))
	rules, err := miner.MineMatrix(paperFig1())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := rules.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != rules.K() || got.M() != rules.M() || got.TrainedRows() != rules.TrainedRows() {
		t.Error("shape metadata did not round-trip")
	}
	if !matrix.EqualApproxVec(got.Means(), rules.Means(), 1e-15) {
		t.Error("means did not round-trip")
	}
	if !matrix.EqualApprox(got.Vectors(), rules.Vectors(), 1e-15) {
		t.Error("vectors did not round-trip")
	}
	if got.AttrName(1) != "butter" {
		t.Error("attribute names did not round-trip")
	}
	if math.Abs(got.TotalVariance()-rules.TotalVariance()) > 1e-15 {
		t.Error("total variance did not round-trip")
	}
}

// TestSaveBytes pins Save's document byte for byte (two-space indent,
// HTML-escaped names, a final newline) and MarshalJSON's as its compact
// form.
func TestSaveBytes(t *testing.T) {
	v := matrix.MustFromRows([][]float64{{0.6, 0.8}, {0.8, -0.6}})
	r := &Rules{
		attrs:         []string{"<bread>", "milk & honey"},
		means:         []float64{1.5, -2},
		v:             v,
		eigenvalues:   []float64{3, 0.25},
		totalVariance: 3.25,
		trainedRows:   10,
		residStd:      []float64{0, 0.125},
		lev:           leverages(v),
	}
	const want = `{
  "attrs": [
    "\u003cbread\u003e",
    "milk \u0026 honey"
  ],
  "means": [
    1.5,
    -2
  ],
  "eigenvalues": [
    3,
    0.25
  ],
  "total_variance": 3.25,
  "trained_rows": 10,
  "vectors": [
    [
      0.6,
      0.8
    ],
    [
      0.8,
      -0.6
    ]
  ],
  "residual_std": [
    0,
    0.125
  ]
}
`
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("Save wrote\n%s\nwant\n%s", buf.String(), want)
	}
	compact, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var wantCompact bytes.Buffer
	if err := json.Compact(&wantCompact, []byte(want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact, wantCompact.Bytes()) {
		t.Errorf("MarshalJSON = %s, want %s", compact, wantCompact.Bytes())
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"ragged vectors": `{"means":[0,0],"eigenvalues":[1],"vectors":[[1],[1,2]]}`,
		"means mismatch": `{"means":[0,0,0],"eigenvalues":[1],"vectors":[[1],[1]]}`,
		"eigen mismatch": `{"means":[0,0],"eigenvalues":[1,2],"vectors":[[1],[1]]}`,
		"attrs mismatch": `{"attrs":["a"],"means":[0,0],"eigenvalues":[1],"vectors":[[1],[1]]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(in)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	// Rule sets the closed-form solves would answer differently from
	// least squares: VᵗV ≠ I, or a spectrum Case 3 would misorder.
	bad := map[string]string{
		"not unit":       `{"means":[0,0,0],"eigenvalues":[1],"total_variance":1,"trained_rows":10,"vectors":[[0.5],[0.5],[0.5]]}`,
		"not orthogonal": `{"means":[0,0],"eigenvalues":[2,1],"vectors":[[0.6,0.8],[0.8,0.6]]}`,
		"k > M":          `{"means":[0],"eigenvalues":[1,1],"vectors":[[1,0]]}`,
		"ascending":      `{"means":[0,0],"eigenvalues":[1,2],"vectors":[[1,0],[0,1]]}`,
		"negative":       `{"means":[0,0],"eigenvalues":[-1],"vectors":[[1],[0]]}`,
	}
	for name, in := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(in)); !errors.Is(err, ErrBadRules) {
				t.Errorf("got %v, want ErrBadRules", err)
			}
		})
	}
	// Only JSON white space may follow the rule set.
	const one = `{"means":[0],"eigenvalues":[],"vectors":[[]]}`
	if _, err := Load(strings.NewReader(one + " \t\r\n")); err != nil {
		t.Fatalf("trailing white space: %v", err)
	}
	tails := map[string]string{"second object": one, "trailing byte": " x", "extra brace": "}", "extra number": "\n1"}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(one + tail)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// randomCorrelated builds n rows of m correlated attributes: a couple of
// latent factors plus noise, so several eigenvalues are meaningful.
func randomCorrelated(rng *rand.Rand, n, m int) *matrix.Dense {
	x := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		f1, f2 := rng.NormFloat64()*5, rng.NormFloat64()*2
		row := x.RawRow(i)
		for j := range row {
			row[j] = f1*float64(j+1) + f2*float64(m-j) + rng.NormFloat64()*0.5
		}
	}
	return x
}

func TestRulesStringUnnamed(t *testing.T) {
	miner, _ := NewMiner(WithFixedK(1))
	rules, err := miner.MineMatrix(paperFig1())
	if err != nil {
		t.Fatal(err)
	}
	s := rules.String()
	if !strings.Contains(s, "attr0") || !strings.Contains(s, "attr1") {
		t.Errorf("unnamed rules table missing fallback names:\n%s", s)
	}
}

func TestRatioPanicsOutOfRange(t *testing.T) {
	miner, _ := NewMiner(WithFixedK(1))
	rules, err := miner.MineMatrix(paperFig1())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Ratio with bad attribute must panic")
		}
	}()
	rules.Ratio(0, 0, 9)
}
