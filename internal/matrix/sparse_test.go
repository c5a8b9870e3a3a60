package matrix

import (
	"errors"
	"testing"
)

func TestNewSparseVec(t *testing.T) {
	s, err := NewSparseVec(5, []int{1, 3}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 || s.Len != 5 {
		t.Errorf("NNZ/Len = %d/%d", s.NNZ(), s.Len)
	}
	if s.At(1) != 2 || s.At(3) != 4 || s.At(0) != 0 || s.At(4) != 0 {
		t.Error("At wrong")
	}
}

func TestNewSparseVecValidation(t *testing.T) {
	cases := []struct {
		name string
		len  int
		idx  []int
		val  []float64
	}{
		{"negative length", -1, nil, nil},
		{"ragged", 5, []int{1}, []float64{1, 2}},
		{"out of range", 5, []int{5}, []float64{1}},
		{"negative index", 5, []int{-1}, []float64{1}},
		{"unsorted", 5, []int{3, 1}, []float64{1, 2}},
		{"duplicate", 5, []int{2, 2}, []float64{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewSparseVec(tc.len, tc.idx, tc.val); !errors.Is(err, ErrDimensionMismatch) {
				t.Errorf("err = %v, want ErrDimensionMismatch", err)
			}
		})
	}
}

func TestSparsifyRoundTrip(t *testing.T) {
	row := []float64{0, 1.5, 0, -2, 0.0001}
	s := SparsifyRow(row, 0.001)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (eps filter)", s.NNZ())
	}
	dense := s.ToDense()
	want := []float64{0, 1.5, 0, -2, 0}
	if !EqualApproxVec(dense, want, 0) {
		t.Errorf("ToDense = %v, want %v", dense, want)
	}
}

func TestSparseAtPanics(t *testing.T) {
	s := SparsifyRow([]float64{1}, 0)
	defer func() {
		if recover() == nil {
			t.Error("At out of range must panic")
		}
	}()
	s.At(5)
}
