package core

import (
	"fmt"
	"math"
	"sort"
)

// Hole is the paper's "?" marker: place it in a record passed to
// FillRecord to mark an unknown value.
var Hole = math.NaN()

// IsHole reports whether a cell value is the Hole marker.
func IsHole(v float64) bool { return math.IsNaN(v) }

// Estimator is anything that can reconstruct hidden cells of a record.
// The guessing error (Sec. 4.3) is defined for any Estimator, which is how
// the paper's col-avgs competitor and the Ratio Rules method share one
// benchmark harness.
type Estimator interface {
	// Width reports the record width M the estimator expects.
	Width() int
	// FillRow returns a copy of row with the cells at holes replaced by
	// estimates. Cells not listed in holes are passed through unchanged.
	// The input row's values at hole positions are ignored.
	FillRow(row []float64, holes []int) ([]float64, error)
}

// FillRow implements Estimator using the geometric algorithm of Fig. 3:
// intersect the feasible solution space (fixed by the known cells) with the
// RR-hyperplane spanned by the retained rules.
//
// The three cases of Sec. 4.4 are handled as the paper prescribes:
//
//   - exactly-specified, (M−h) == k: direct solve of V′·x = b′ (Eq. 6);
//   - over-specified, (M−h) > k: Moore–Penrose pseudo-inverse (Eqs. 7–9);
//   - under-specified, (M−h) < k: drop the weakest rules until the system
//     is exactly specified, then solve (Case 3).
//
// With k = 0 (or when every cell is a hole) the prediction degenerates to
// the column averages, which is exactly the col-avgs competitor. The
// solves take the closed forms of solve.go, falling back to the paper's
// pseudo-inverse where V′ is ill-conditioned.
func (r *Rules) FillRow(row []float64, holes []int) ([]float64, error) {
	out, err := r.fill(row, holes)
	fillOps.count(err)
	return out, err
}

// Width implements Estimator.
func (r *Rules) Width() int { return r.M() }

// FillRecord reconstructs every cell marked with the Hole marker (NaN) in
// record, returning a fully populated copy. It is the user-facing
// counterpart of FillRow for records with inline "?" markers.
func (r *Rules) FillRecord(record []float64) ([]float64, error) {
	var holes []int
	for j, v := range record {
		if IsHole(v) {
			holes = append(holes, j)
		}
	}
	return r.FillRow(record, holes)
}

// fill is the uncounted body of FillRow, shared by every fill path.
func (r *Rules) fill(row []float64, holes []int) ([]float64, error) {
	m := r.M()
	if len(row) != m {
		return nil, fmt.Errorf("core: record width %d, want %d: %w", len(row), m, ErrWidth)
	}
	isHole, err := holeMask(holes, m)
	if err != nil {
		return nil, err
	}
	out := append([]float64(nil), row...)
	if err := r.fillHoles(row, holes, isHole, out); err != nil {
		return nil, err
	}
	return out, nil
}

// holeMask flags the holes over m attributes, rejecting out-of-range and
// duplicate indices.
func holeMask(holes []int, m int) ([]bool, error) {
	if len(holes) > m {
		return nil, fmt.Errorf("core: %d holes for %d attributes: %w", len(holes), m, ErrBadHole)
	}
	isHole := make([]bool, m)
	for _, j := range holes {
		if j < 0 || j >= m {
			return nil, fmt.Errorf("core: hole index %d out of range [0,%d): %w", j, m, ErrBadHole)
		}
		if isHole[j] {
			return nil, fmt.Errorf("core: duplicate hole index %d: %w", j, ErrBadHole)
		}
		isHole[j] = true
	}
	return isHole, nil
}

// BandedFill is a reconstruction with a 1-sigma uncertainty band per
// filled cell.
type BandedFill struct {
	// Filled is the completed record (known cells passed through).
	Filled []float64
	// Std[j] is the 1-sigma reconstruction uncertainty of cell j: the
	// training residual deviation for filled cells, 0 for known cells.
	Std []float64
}

// FillRecordWithBands reconstructs the Hole-marked cells of record and
// attaches a per-cell uncertainty: the training residual standard
// deviation of each filled attribute (how far real records typically sit
// from the RR-hyperplane along it). A forecast of "$6.10 ± $0.40 of
// butter" is considerably more useful for the paper's decision-support
// applications than the point estimate alone.
//
// The band is the *projection* residual — the error that remains when a
// record is projected onto the RR-hyperplane with full information. When
// most of the record is hidden, the fill additionally inherits the noise
// of the few known cells through the solve, so treat the band as a lower
// bound in heavily-incomplete records.
func (r *Rules) FillRecordWithBands(record []float64) (*BandedFill, error) {
	filled, err := r.FillRecord(record)
	if err != nil {
		return nil, err
	}
	std := make([]float64, len(record))
	for j, v := range record {
		if IsHole(v) {
			std[j] = r.ResidualStd(j)
		}
	}
	return &BandedFill{Filled: filled, Std: std}, nil
}

// ColAvgs is the paper's straightforward competitor: predict every hidden
// cell with the column average of the training set. It equals Ratio Rules
// with k = 0 eigenvectors.
type ColAvgs struct {
	means []float64
}

// NewColAvgs builds the competitor from training column averages.
func NewColAvgs(means []float64) *ColAvgs {
	out := make([]float64, len(means))
	copy(out, means)
	return &ColAvgs{means: out}
}

// Width implements Estimator.
func (c *ColAvgs) Width() int { return len(c.means) }

// FillRow implements Estimator by substituting column averages.
func (c *ColAvgs) FillRow(row []float64, holes []int) ([]float64, error) {
	if len(row) != len(c.means) {
		return nil, fmt.Errorf("core: record width %d, want %d: %w", len(row), len(c.means), ErrWidth)
	}
	if _, err := holeMask(holes, len(c.means)); err != nil {
		return nil, err
	}
	out := make([]float64, len(row))
	copy(out, row)
	for _, j := range holes {
		out[j] = c.means[j]
	}
	return out, nil
}

// SortedHoles returns a sorted copy of holes; exported helpers in this
// package expect ordered hole sets only for deterministic error text, the
// algorithms accept any order.
func SortedHoles(holes []int) []int {
	out := append([]int(nil), holes...)
	sort.Ints(out)
	return out
}
