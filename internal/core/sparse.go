package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"ratiorules/internal/matrix"
	"ratiorules/internal/stats"
)

// SparseRowSource yields sparse rows of a data matrix, for single-pass
// mining of wide, mostly-zero matrices such as market baskets (the
// footnote-1 regime of the paper, where M is large but each row touches a
// few columns). NextSparse returns io.EOF after the last row; the returned
// vector's slices may be reused between calls.
type SparseRowSource interface {
	// Width reports the number of attributes M.
	Width() int
	// NextSparse returns the next row in sparse form or io.EOF.
	NextSparse() (matrix.SparseVec, error)
}

// MineSparse streams sparse rows through the single-pass accumulator,
// touching only nonzero cells: O(nnz²) work per row instead of O(M²). The
// rules produced are identical to dense mining of the materialized matrix.
// Every row must pass SparseVec.Validate.
func (m *Miner) MineSparse(src SparseRowSource) (*Rules, error) {
	return m.mine(context.Background(), src.Width(), func(acc *stats.CovAccumulator) error {
		for {
			row, err := src.NextSparse()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("core: reading sparse rows: %w", err)
			}
			if err := acc.PushSparse(row); err != nil {
				return fmt.Errorf("core: accumulating sparse row %d: %w", acc.Count(), err)
			}
		}
	})
}
