package core

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"ratiorules/internal/matrix"
	"ratiorules/internal/quest"
	"ratiorules/internal/stats"
)

// sliceSparseSource adapts a dense matrix to the sparse source contract.
type sliceSparseSource struct {
	m *matrix.Dense
	i int
}

func (s *sliceSparseSource) Width() int { return s.m.Cols() }
func (s *sliceSparseSource) NextSparse() (matrix.SparseVec, error) {
	if s.i >= s.m.Rows() {
		return matrix.SparseVec{}, io.EOF
	}
	row := s.m.RawRow(s.i)
	s.i++
	return matrix.SparsifyRow(row, 0), nil
}

func TestMineSparseEqualsDense(t *testing.T) {
	// Sparse basket-like data: mostly zero with correlated nonzeros.
	rng := rand.New(rand.NewSource(101))
	x := matrix.NewDense(300, 12)
	for i := 0; i < 300; i++ {
		row := x.RawRow(i)
		if rng.Float64() < 0.5 { // bundle A: products 0, 3, 7
			v := 1 + rng.Float64()*5
			row[0], row[3], row[7] = v, 2*v, 0.5*v
		}
		if rng.Float64() < 0.3 { // bundle B: products 2, 9
			v := 1 + rng.Float64()*3
			row[2], row[9] = v, 1.5*v
		}
	}
	miner, err := NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	dense, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := miner.MineSparse(&sliceSparseSource{m: x})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.K() != dense.K() || sparse.TrainedRows() != dense.TrainedRows() {
		t.Fatalf("K/rows = %d/%d, want %d/%d",
			sparse.K(), sparse.TrainedRows(), dense.K(), dense.TrainedRows())
	}
	if !matrix.EqualApproxVec(sparse.Means(), dense.Means(), 1e-12) {
		t.Error("means differ")
	}
	if !matrix.EqualApproxVec(sparse.Eigenvalues(), dense.Eigenvalues(),
		1e-8*(1+dense.Eigenvalues()[0])) {
		t.Errorf("eigenvalues differ:\ndense %v\nsparse %v", dense.Eigenvalues(), sparse.Eigenvalues())
	}
	for i := 0; i < dense.K(); i++ {
		if !matrix.EqualApproxVec(sparse.Rule(i), dense.Rule(i), 1e-8) {
			t.Errorf("rule %d differs", i)
		}
	}
}

func TestMineSparseQuestAgreesWithDense(t *testing.T) {
	cfg := quest.DefaultConfig(500)
	denseSrc, err := quest.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sparseSrc, err := quest.NewSparseSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner, err := NewMiner(WithMaxK(5))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := miner.Mine(denseSrc)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := miner.MineSparse(sparseSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(sparse.Means(), dense.Means(), 1e-9) {
		t.Error("quest means differ between dense and sparse paths")
	}
	if !matrix.EqualApproxVec(sparse.Eigenvalues(), dense.Eigenvalues(),
		1e-7*(1+dense.Eigenvalues()[0])) {
		t.Error("quest eigenvalues differ between dense and sparse paths")
	}
}

// badSparseRows are 3-wide rows that break SparseVec's invariants; the
// fields are exported, so a SparseRowSource can yield them unchecked.
var badSparseRows = map[string]matrix.SparseVec{
	"unsorted":     {Len: 3, Idx: []int{2, 0}, Val: []float64{4, 1}},
	"duplicate":    {Len: 3, Idx: []int{1, 1}, Val: []float64{2, 3}},
	"out of range": {Len: 3, Idx: []int{0, 7}, Val: []float64{1, 5}},
	"ragged":       {Len: 3, Idx: []int{0, 2}, Val: []float64{1}},
}

// rawSparseSource yields its rows as-is.
type rawSparseSource struct {
	rows []matrix.SparseVec
	i    int
}

func (s *rawSparseSource) Width() int { return 3 }
func (s *rawSparseSource) NextSparse() (matrix.SparseVec, error) {
	if s.i >= len(s.rows) {
		return matrix.SparseVec{}, io.EOF
	}
	s.i++
	return s.rows[s.i-1], nil
}

func TestMineSparseValidation(t *testing.T) {
	miner, _ := NewMiner()
	if _, err := miner.MineSparse(&sliceSparseSource{m: matrix.NewDense(0, 0)}); !errors.Is(err, ErrWidth) {
		t.Errorf("zero width: err = %v, want ErrWidth", err)
	}
	if _, err := miner.MineSparse(&sliceSparseSource{m: matrix.NewDense(1, 3)}); err == nil {
		t.Error("single row must fail")
	}
	named, _ := NewMiner(WithAttrNames([]string{"a"}))
	if _, err := named.MineSparse(&sliceSparseSource{m: matrix.NewDense(5, 3)}); !errors.Is(err, ErrWidth) {
		t.Errorf("attr mismatch: err = %v, want ErrWidth", err)
	}
	good := []matrix.SparseVec{
		{Len: 3, Idx: []int{0, 2}, Val: []float64{1, 2}},
		{Len: 3, Idx: []int{1}, Val: []float64{3}},
		{Len: 3, Idx: []int{0, 1, 2}, Val: []float64{2, 1, 4}},
	}
	for name, bad := range badSparseRows {
		rows := append(append([]matrix.SparseVec(nil), good...), bad)
		if _, err := miner.MineSparse(&rawSparseSource{rows: rows}); !errors.Is(err, matrix.ErrDimensionMismatch) {
			t.Errorf("%s row: err = %v, want ErrDimensionMismatch", name, err)
		}
	}
}

func TestPushSparseValidation(t *testing.T) {
	acc := stats.NewCovAccumulator(3)
	if err := acc.PushSparse(matrix.SparseVec{Len: 2}); !errors.Is(err, stats.ErrWidth) {
		t.Errorf("width: err = %v, want ErrWidth", err)
	}
	bad := matrix.SparseVec{Len: 3, Idx: []int{1}, Val: []float64{nan()}}
	if err := acc.PushSparse(bad); !errors.Is(err, stats.ErrBadValue) {
		t.Errorf("NaN: err = %v, want ErrBadValue", err)
	}
	for name, row := range badSparseRows {
		if err := acc.PushSparse(row); !errors.Is(err, matrix.ErrDimensionMismatch) {
			t.Errorf("%s: err = %v, want ErrDimensionMismatch", name, err)
		}
	}
	if acc.Count() != 0 {
		t.Errorf("rejected rows were folded: count %d", acc.Count())
	}
}

func nan() float64 { return Hole }
