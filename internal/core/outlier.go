package core

import (
	"fmt"
	"math"
	"sort"

	"ratiorules/internal/matrix"
	"ratiorules/internal/stats"
)

// CellOutlier is a single matrix cell whose actual value deviates from its
// Ratio-Rules reconstruction by more than the configured number of standard
// deviations (Sec. 4.4: "a value is an outlier when its predicted value is
// significantly different (e.g., two standard deviations away) from the
// existing hidden value").
type CellOutlier struct {
	Row, Col  int
	Actual    float64
	Predicted float64
	// Score is the deviation in units of the column's residual standard
	// deviation (always >= the detection threshold).
	Score float64
}

// DefaultOutlierSigma is the paper's suggested two-standard-deviations
// threshold.
const DefaultOutlierSigma = 2.0

// CellOutliers hides each cell of x in turn, reconstructs it with the
// rules, and reports cells whose residual exceeds sigma standard deviations
// of that column's residual distribution. A sigma of 0 selects
// DefaultOutlierSigma. Results are sorted by descending score.
func (r *Rules) CellOutliers(x *matrix.Dense, sigma float64) ([]CellOutlier, error) {
	out, err := r.cellOutliers(x, sigma)
	outlierOps.count(err)
	return out, err
}

func (r *Rules) cellOutliers(x *matrix.Dense, sigma float64) ([]CellOutlier, error) {
	n, m := x.Dims()
	if m != r.M() {
		return nil, fmt.Errorf("core: outliers on %d-wide matrix with %d-wide rules: %w",
			m, r.M(), ErrWidth)
	}
	if sigma <= 0 {
		sigma = DefaultOutlierSigma
	}
	// First pass: reconstruct every cell and collect residuals per column.
	loo, err := r.newLOO()
	if err != nil {
		return nil, err
	}
	sc := loo.scratch()
	resid := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		resid.SetRow(i, loo.errs(x.RawRow(i), sc))
	}
	// Per-column residual scale.
	stds := make([]float64, m)
	for j := 0; j < m; j++ {
		stds[j] = stats.RMS(resid.Col(j))
	}
	var out []CellOutlier
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if stds[j] == 0 {
				continue
			}
			score := math.Abs(resid.At(i, j)) / stds[j]
			if score >= sigma {
				out = append(out, CellOutlier{
					Row:       i,
					Col:       j,
					Actual:    x.At(i, j),
					Predicted: x.At(i, j) - resid.At(i, j),
					Score:     score,
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out, nil
}

// RowOutlier is a record whose distance from the RR-hyperplane is
// anomalously large relative to the dataset.
type RowOutlier struct {
	Row int
	// Distance is the Euclidean distance of the (centered) record from the
	// rank-k RR-hyperplane — the reconstruction residual norm.
	Distance float64
	// Score is the distance in units of the dataset's RMS distance.
	Score float64
}

// RowOutliers measures each record's distance from the RR-hyperplane (the
// energy outside the retained rules) and reports rows whose distance
// exceeds sigma times the RMS distance. A sigma of 0 selects
// DefaultOutlierSigma. Results are sorted by descending score.
func (r *Rules) RowOutliers(x *matrix.Dense, sigma float64) ([]RowOutlier, error) {
	out, err := r.rowOutliers(x, sigma)
	outlierOps.count(err)
	return out, err
}

func (r *Rules) rowOutliers(x *matrix.Dense, sigma float64) ([]RowOutlier, error) {
	n, m := x.Dims()
	if m != r.M() {
		return nil, fmt.Errorf("core: outliers on %d-wide matrix with %d-wide rules: %w",
			m, r.M(), ErrWidth)
	}
	if sigma <= 0 {
		sigma = DefaultOutlierSigma
	}
	dists := make([]float64, n)
	norms := make([]float64, n)
	k := r.K()
	centered := make([]float64, m)
	proj := make([]float64, k)
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		for j := 0; j < m; j++ {
			centered[j] = row[j] - r.means[j]
		}
		norms[i] = matrix.Norm2(centered)
		// Project onto the rules and measure what the projection misses.
		for c := 0; c < k; c++ {
			var s float64
			for j := 0; j < m; j++ {
				s += r.v.At(j, c) * centered[j]
			}
			proj[c] = s
		}
		var d2 float64
		for j := 0; j < m; j++ {
			var recon float64
			for c := 0; c < k; c++ {
				recon += r.v.At(j, c) * proj[c]
			}
			diff := centered[j] - recon
			d2 += diff * diff
		}
		dists[i] = math.Sqrt(d2)
	}
	scale := stats.RMS(dists)
	// When every record sits numerically on the hyperplane, the residuals
	// are pure round-off; normalizing round-off by round-off would
	// manufacture outliers, so require the residual scale to be
	// non-negligible relative to the data's own magnitude.
	if scale <= 1e-9*(1+stats.RMS(norms)) {
		return nil, nil
	}
	var out []RowOutlier
	for i, d := range dists {
		if score := d / scale; score >= sigma {
			out = append(out, RowOutlier{Row: i, Distance: d, Score: score})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out, nil
}
