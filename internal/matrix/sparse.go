package matrix

import (
	"fmt"
	"sort"
)

// SparseVec is a sparse row vector: the values at the (sorted, distinct)
// indices in Idx, zero elsewhere. Market-basket rows — the paper's
// motivating data — are naturally sparse: a customer touches a handful of
// the M products, so accumulating covariance from the nonzeros alone costs
// O(nnz²) instead of O(M²) per row.
type SparseVec struct {
	Len int
	Idx []int
	Val []float64
}

// NewSparseVec builds a sparse vector from parallel index/value slices,
// checked by Validate. The slices are adopted, not copied.
func NewSparseVec(length int, idx []int, val []float64) (SparseVec, error) {
	s := SparseVec{Len: length, Idx: idx, Val: val}
	if err := s.Validate(); err != nil {
		return SparseVec{}, err
	}
	return s, nil
}

// Validate checks the invariants every consumer relies on: a
// non-negative length, equally long index and value slices, and indices
// strictly increasing within [0, Len). The fields are exported, so a
// vector built without NewSparseVec may break them.
func (s SparseVec) Validate() error {
	if s.Len < 0 {
		return fmt.Errorf("matrix: sparse length %d: %w", s.Len, ErrDimensionMismatch)
	}
	if len(s.Idx) != len(s.Val) {
		return fmt.Errorf("matrix: sparse with %d indices, %d values: %w",
			len(s.Idx), len(s.Val), ErrDimensionMismatch)
	}
	for i, j := range s.Idx {
		if j < 0 || j >= s.Len {
			return fmt.Errorf("matrix: sparse index %d out of range [0,%d): %w",
				j, s.Len, ErrDimensionMismatch)
		}
		if i > 0 && s.Idx[i-1] >= j {
			return fmt.Errorf("matrix: sparse indices not strictly increasing at %d: %w",
				i, ErrDimensionMismatch)
		}
	}
	return nil
}

// SparsifyRow converts a dense row to sparse form, dropping cells with
// |value| <= eps. The result copies; the input row may be reused.
func SparsifyRow(row []float64, eps float64) SparseVec {
	var idx []int
	var val []float64
	for j, v := range row {
		if v > eps || v < -eps {
			idx = append(idx, j)
			val = append(val, v)
		}
	}
	return SparseVec{Len: len(row), Idx: idx, Val: val}
}

// NNZ reports the number of stored nonzeros.
func (s SparseVec) NNZ() int { return len(s.Idx) }

// At returns the value at index j (0 when not stored).
func (s SparseVec) At(j int) float64 {
	if j < 0 || j >= s.Len {
		panic(fmt.Sprintf("matrix: sparse index %d out of range [0,%d)", j, s.Len))
	}
	p := sort.SearchInts(s.Idx, j)
	if p < len(s.Idx) && s.Idx[p] == j {
		return s.Val[p]
	}
	return 0
}

// ToDense materializes the vector.
func (s SparseVec) ToDense() []float64 {
	out := make([]float64, s.Len)
	for i, j := range s.Idx {
		out[j] = s.Val[i]
	}
	return out
}

// DotSparse returns the inner product of two sparse vectors of equal
// length.
func DotSparse(a, b SparseVec) (float64, error) {
	if a.Len != b.Len {
		return 0, fmt.Errorf("matrix: sparse dot of lengths %d and %d: %w",
			a.Len, b.Len, ErrDimensionMismatch)
	}
	var sum float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			sum += a.Val[i] * b.Val[j]
			i++
			j++
		}
	}
	return sum, nil
}
