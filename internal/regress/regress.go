// Package regress implements multiple linear regression, the statistical
// baseline the paper mentions as "remotely related" to Ratio Rules
// (Sec. 5, Methods): it can predict missing values for one designated
// column when everything else is known, whereas Ratio Rules predict
// arbitrary subsets of columns.
//
// The model here fits one regression per target column (all remaining
// columns plus an intercept as regressors), so it can participate in the
// guessing-error benchmarks alongside Ratio Rules and col-avgs. For
// multi-hole records it imputes the other holes with training means before
// applying the target's regression — exactly the limitation the paper
// points out, made concrete.
package regress

import (
	"errors"
	"fmt"

	"ratiorules/internal/matrix"
	"ratiorules/internal/svd"
)

// ErrWidth is returned for records whose width disagrees with the model.
var ErrWidth = errors.New("regress: record width mismatch")

// ErrBadHole is returned for invalid hole indices.
var ErrBadHole = errors.New("regress: invalid hole index")

// Model holds one fitted regression per column.
type Model struct {
	means []float64
	// coef[j] has M entries: the weight of every attribute l != j (entry j
	// itself unused) plus intercept[j].
	coef      [][]float64
	intercept []float64
}

// Fit trains a per-column multiple linear regression on x.
// It needs at least M+1 rows. Each column's weights are the
// minimum-norm least-squares solution, so near-collinear designs fit
// too.
func Fit(x *matrix.Dense) (*Model, error) {
	n, m := x.Dims()
	if m < 2 {
		return nil, fmt.Errorf("regress: need at least 2 columns, have %d", m)
	}
	if n < m+1 {
		return nil, fmt.Errorf("regress: need at least %d rows for %d columns, have %d", m+1, m, n)
	}
	model := &Model{
		means:     x.ColMeans(),
		coef:      make([][]float64, m),
		intercept: make([]float64, m),
	}
	// Design matrix for target j: columns l != j plus an all-ones column.
	design := matrix.NewDense(n, m) // m-1 regressors + intercept
	rhs := make([]float64, n)
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			row := x.RawRow(i)
			drow := design.RawRow(i)
			c := 0
			for l := 0; l < m; l++ {
				if l == j {
					continue
				}
				drow[c] = row[l]
				c++
			}
			drow[m-1] = 1
			rhs[i] = row[j]
		}
		w, err := svd.SolveLeastSquares(design, rhs)
		if err != nil {
			return nil, fmt.Errorf("regress: fitting column %d: %w", j, err)
		}
		full := make([]float64, m)
		c := 0
		for l := 0; l < m; l++ {
			if l == j {
				continue
			}
			full[l] = w[c]
			c++
		}
		model.coef[j] = full
		model.intercept[j] = w[m-1]
	}
	return model, nil
}

// Width implements the estimator contract shared with core.
func (m *Model) Width() int { return len(m.means) }

// PredictColumn predicts attribute target from a record whose other values
// are all known.
func (m *Model) PredictColumn(row []float64, target int) (float64, error) {
	if len(row) != len(m.means) {
		return 0, fmt.Errorf("regress: record width %d, want %d: %w", len(row), len(m.means), ErrWidth)
	}
	if target < 0 || target >= len(m.means) {
		return 0, fmt.Errorf("regress: target %d out of range [0,%d): %w", target, len(m.means), ErrBadHole)
	}
	s := m.intercept[target]
	for l, w := range m.coef[target] {
		if l == target {
			continue
		}
		s += w * row[l]
	}
	return s, nil
}

// FillRow implements the same estimator contract as core.Rules: holes are
// predicted by their column's regression, with any *other* holes imputed
// by the training means first (regression cannot natively handle multiple
// simultaneous unknowns).
func (m *Model) FillRow(row []float64, holes []int) ([]float64, error) {
	width := len(m.means)
	if len(row) != width {
		return nil, fmt.Errorf("regress: record width %d, want %d: %w", len(row), width, ErrWidth)
	}
	seen := make(map[int]bool, len(holes))
	for _, j := range holes {
		if j < 0 || j >= width {
			return nil, fmt.Errorf("regress: hole %d out of range [0,%d): %w", j, width, ErrBadHole)
		}
		if seen[j] {
			return nil, fmt.Errorf("regress: duplicate hole %d: %w", j, ErrBadHole)
		}
		seen[j] = true
	}
	// Mean-impute every hole, then regress each hole from that imputed
	// base (not from other freshly predicted holes, to stay order
	// independent).
	base := make([]float64, width)
	copy(base, row)
	for _, j := range holes {
		base[j] = m.means[j]
	}
	out := make([]float64, width)
	copy(out, base)
	for _, j := range holes {
		v, err := m.PredictColumn(base, j)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}
