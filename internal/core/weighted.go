package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"ratiorules/internal/stats"
)

// WeightedRow is a data row with an integer multiplicity, the natural
// shape of a sales table that stores identical baskets with a count.
type WeightedRow struct {
	Row    []float64
	Weight int
}

// WeightedRowSource streams weighted rows for single-pass mining of
// count-compressed tables. NextWeighted returns io.EOF when exhausted; the
// returned row slice may be reused between calls.
type WeightedRowSource interface {
	Width() int
	NextWeighted() (WeightedRow, error)
}

// MineWeighted mines rules from count-compressed rows: each row enters the
// covariance sums with its multiplicity, so the result is identical to
// mining the expanded table at a fraction of the cost.
func (m *Miner) MineWeighted(src WeightedRowSource) (*Rules, error) {
	return m.mine(context.Background(), src.Width(), func(acc *stats.CovAccumulator) error {
		for {
			wr, err := src.NextWeighted()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("core: reading weighted rows: %w", err)
			}
			if err := acc.PushWeighted(wr.Row, wr.Weight); err != nil {
				return fmt.Errorf("core: accumulating weighted row %d: %w", acc.Count(), err)
			}
		}
	})
}

// WeightedSliceSource adapts an in-memory weighted table to
// WeightedRowSource.
type WeightedSliceSource struct {
	Rows []WeightedRow
	i    int
}

// Width implements WeightedRowSource; it reports the first row's width
// (0 for an empty source).
func (s *WeightedSliceSource) Width() int {
	if len(s.Rows) == 0 {
		return 0
	}
	return len(s.Rows[0].Row)
}

// NextWeighted implements WeightedRowSource.
func (s *WeightedSliceSource) NextWeighted() (WeightedRow, error) {
	if s.i >= len(s.Rows) {
		return WeightedRow{}, io.EOF
	}
	r := s.Rows[s.i]
	s.i++
	return r, nil
}
