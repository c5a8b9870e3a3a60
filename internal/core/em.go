package core

import (
	"fmt"
	"math"

	"ratiorules/internal/matrix"
)

// EMConfig controls MineWithHoles.
type EMConfig struct {
	// MaxRounds caps the fill→re-mine iterations. Zero selects 20.
	MaxRounds int
	// Tol stops iterating when the filled cells move less than Tol
	// relative to the data scale between rounds. Zero selects 1e-6.
	Tol float64
}

// EMResult reports the iterative mining outcome.
type EMResult struct {
	Rules *Rules
	// Completed is the input matrix with every hole replaced by its final
	// reconstruction.
	Completed *matrix.Dense
	// Rounds is the number of iterations performed.
	Rounds int
	// Converged reports whether the fill stabilized before MaxRounds.
	Converged bool
}

// MineWithHoles mines Ratio Rules directly from a matrix containing
// Hole-marked cells, in the expectation-maximization style of PCA with
// missing data: holes start at the column means, rules are mined from the
// completed matrix, the holes are re-filled from the rules, and the loop
// repeats until the filled values stabilize.
//
// This lifts a real limitation of the paper's pipeline: the single-pass
// algorithm needs complete rows, so a dataset where most rows have at
// least one hole would leave almost nothing to train on. Rows that are
// entirely holes contribute nothing and simply receive the means.
func (m *Miner) MineWithHoles(x *matrix.Dense, cfg EMConfig) (*EMResult, error) {
	n, cols := x.Dims()
	if n < 2 {
		return nil, fmt.Errorf("%w, got %d", ErrTooFewRows, n)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 20
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-6
	}

	// Locate the holes and seed them with the per-column mean of the
	// observed cells.
	type cell struct{ i, j int }
	var holes []cell
	sums := make([]float64, cols)
	counts := make([]int, cols)
	work := x.Clone()
	for i := 0; i < n; i++ {
		row := work.RawRow(i)
		for j, v := range row {
			if IsHole(v) {
				holes = append(holes, cell{i, j})
				continue
			}
			sums[j] += v
			counts[j]++
		}
	}
	for j := range sums {
		if counts[j] == 0 {
			return nil, fmt.Errorf("core: column %d has no observed values: %w", j, ErrBadHole)
		}
	}
	seed := make([]float64, cols)
	for j := range seed {
		seed[j] = sums[j] / float64(counts[j])
	}
	for _, c := range holes {
		work.Set(c.i, c.j, seed[c.j])
	}

	// Data scale for the convergence test.
	scale := 1 + work.MaxAbs()

	out := &EMResult{Completed: work}
	row := make([]float64, cols)
	var rowHoles []int
	for round := 1; round <= maxRounds; round++ {
		out.Rounds = round
		rules, err := m.MineMatrix(work)
		if err != nil {
			return nil, fmt.Errorf("core: EM round %d: %w", round, err)
		}
		out.Rules = rules
		if len(holes) == 0 {
			out.Converged = true
			break
		}
		// Re-fill every hole from the fresh rules, tracking movement.
		var maxMove float64
		prev := -1
		for idx := 0; idx <= len(holes); idx++ {
			// Flush the previous row's fills when the row changes.
			if idx == len(holes) || (prev >= 0 && holes[idx].i != prev) {
				filled, err := rules.FillRow(row, rowHoles)
				if err != nil {
					return nil, fmt.Errorf("core: EM round %d row %d: %w", round, prev, err)
				}
				for _, j := range rowHoles {
					if d := math.Abs(filled[j] - work.At(prev, j)); d > maxMove {
						maxMove = d
					}
					work.Set(prev, j, filled[j])
				}
				rowHoles = rowHoles[:0]
			}
			if idx == len(holes) {
				break
			}
			c := holes[idx]
			if c.i != prev {
				copy(row, work.RawRow(c.i))
				prev = c.i
			}
			rowHoles = append(rowHoles, c.j)
		}
		if maxMove <= tol*scale {
			out.Converged = true
			break
		}
	}
	return out, nil
}
