// Package stats implements the streaming statistics that make Ratio Rules
// mining single-pass: the column-average and covariance accumulation of
// Fig. 2(a) in Korn et al. (VLDB 1998), together with the helper statistics
// (RMS, standard deviations, z-scores) the guessing-error and outlier
// machinery needs.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ratiorules/internal/matrix"
)

// ErrNoData is returned when a statistic is requested from an accumulator
// that has not seen any rows.
var ErrNoData = errors.New("stats: no rows accumulated")

// ErrWidth is returned when a row's width disagrees with the accumulator.
var ErrWidth = errors.New("stats: row width mismatch")

// ErrBadValue is returned when a pushed row contains NaN or ±Inf; such
// cells would silently poison every covariance entry they touch.
var ErrBadValue = errors.New("stats: row contains NaN or Inf")

// CovAccumulator accumulates column sums and raw cross-products in a single
// pass over the rows of an N×M matrix, exactly as the paper's Fig. 2(a)
// pseudocode: after all rows are pushed, the centered scatter matrix is
// recovered as C[j][l] = Σᵢ x[i][j]·x[i][l] − N·avg[j]·avg[l].
//
// Each row enters with a weight wᵢ: 1, or its multiplicity for
// PushWeighted. An optional exponential decay λ (NewDecayedCovAccumulator)
// scales everything accumulated so far by (1−λ) before each push, so after
// rows x₁..xₙ row xᵢ counts (1−λ)^(n−i)·wᵢ. The running state is
//
//	weight  = Σ wᵢ          (N without decay)
//	sums[j] = Σ wᵢ·xᵢⱼ
//	cross   = Σ wᵢ·xᵢ·xᵢᵗ   (upper triangle)
//
// and weight stands in for N in the means and the scatter. Every push
// validates its rows before it folds anything, so a rejected push leaves
// the state untouched.
//
// The zero value is not usable; construct with NewCovAccumulator.
type CovAccumulator struct {
	m      int
	n      int     // rows pushed, multiplicities included, undecayed
	weight float64 // Σ wᵢ after decay; equals n without decay
	decay  float64 // λ in [0, 1)
	sums   []float64
	cross  *matrix.Dense // upper triangle maintained, mirrored on demand
}

// NewCovAccumulator returns an accumulator for rows of width m.
// It panics if m is negative.
func NewCovAccumulator(m int) *CovAccumulator {
	if m < 0 {
		panic(fmt.Sprintf("stats: NewCovAccumulator with negative width %d", m))
	}
	return &CovAccumulator{
		m:     m,
		sums:  make([]float64, m),
		cross: matrix.NewDense(m, m),
	}
}

// NewDecayedCovAccumulator returns an accumulator for rows of width m whose
// every push first scales the state by (1−lambda), geometrically
// down-weighting old rows so the sums track drifting ratios. lambda must
// lie in [0, 1); 0 gives the plain NewCovAccumulator.
func NewDecayedCovAccumulator(m int, lambda float64) (*CovAccumulator, error) {
	if err := checkDecay(lambda); err != nil {
		return nil, err
	}
	c := NewCovAccumulator(m)
	c.decay = lambda
	return c, nil
}

func checkDecay(lambda float64) error {
	if !(lambda >= 0 && lambda < 1) {
		return fmt.Errorf("stats: decay %v outside [0, 1)", lambda)
	}
	return nil
}

// validate is the one check every push runs before it folds anything:
// rows of the accumulator's width, every value finite. vals holds whole
// rows of that width back to back; a sparse push passes its stored values
// and, in cols, their columns.
func (c *CovAccumulator) validate(width int, vals []float64, cols []int) error {
	if width != c.m {
		return fmt.Errorf("stats: row width %d, want %d: %w", width, c.m, ErrWidth)
	}
	i := firstNonFinite(vals)
	switch {
	case i < 0:
		return nil
	case cols != nil:
		return fmt.Errorf("stats: column %d has value %v: %w", cols[i], vals[i], ErrBadValue)
	default:
		return fmt.Errorf("stats: row %d column %d has value %v: %w", i/width, i%width, vals[i], ErrBadValue)
	}
}

// Push folds one row into the running sums. This is the inner loop of the
// paper's single-pass algorithm: O(M²) work per row, no retained rows.
// Rows containing NaN or ±Inf are rejected with ErrBadValue.
func (c *CovAccumulator) Push(row []float64) error {
	return c.PushWeighted(row, 1)
}

// PushWeighted folds one row with an integer multiplicity — without decay,
// equivalent to pushing the row `weight` times, in O(M²) instead of
// O(weight·M²). Sales databases often store identical baskets with a count;
// this keeps the single-pass property while honoring the multiplicities.
// With decay the row arrives once, carrying its multiplicity.
func (c *CovAccumulator) PushWeighted(row []float64, weight int) error {
	if weight <= 0 {
		return fmt.Errorf("stats: weight %d must be positive: %w", weight, ErrBadValue)
	}
	if err := c.validate(len(row), row, nil); err != nil {
		return err
	}
	c.fold(row, weight)
	return nil
}

// fold adds one validated row with the given multiplicity.
func (c *CovAccumulator) fold(row []float64, weight int) {
	c.rescale()
	c.n += weight
	w := float64(weight)
	c.weight += w
	for j, v := range row {
		wv := w * v
		c.sums[j] += wv
		if v == 0 {
			continue
		}
		r := c.cross.RawRow(j)
		for l := j; l < c.m; l++ {
			r[l] += wv * row[l]
		}
	}
}

// rescale applies one step of decay to the whole state.
func (c *CovAccumulator) rescale() {
	if c.decay == 0 {
		return
	}
	keep := 1 - c.decay
	c.weight *= keep
	for j := range c.sums {
		c.sums[j] *= keep
	}
	for j := 0; j < c.m; j++ {
		r := c.cross.RawRow(j)
		for l := j; l < c.m; l++ {
			r[l] *= keep
		}
	}
}

// PushSparse folds one sparse row into the running sums, touching only
// the nonzero cells: O(nnz) for the column sums and O(nnz²) for the
// cross-products, against O(M²) for the dense Push. For the paper's
// market-basket matrices (a customer touches a handful of the M products)
// this is the difference between tractable and not. The row must pass
// SparseVec.Validate: its fields are exported, and an unsorted or
// out-of-range index would fold into cells Scatter never reads.
func (c *CovAccumulator) PushSparse(row matrix.SparseVec) error {
	if err := row.Validate(); err != nil {
		return fmt.Errorf("stats: sparse row: %w", err)
	}
	if err := c.validate(row.Len, row.Val, row.Idx); err != nil {
		return err
	}
	c.rescale()
	c.n++
	c.weight++
	for i, j := range row.Idx {
		v := row.Val[i]
		c.sums[j] += v
		r := c.cross.RawRow(j)
		for p := i; p < len(row.Idx); p++ {
			r[row.Idx[p]] += v * row.Val[p]
		}
	}
	return nil
}

// PushBlock folds a block of rows — flat, row-major, len(flat) = n·M — in
// one call, equivalent to pushing each row in order. The block is
// validated up front and applied all-or-nothing: on a non-finite value or
// a ragged length nothing is folded and the error names the offending
// row/column.
//
// Without decay the cross-products go through a SIMD rank-1 kernel
// (AVX2/FMA on amd64, a portable loop elsewhere) that updates the upper
// triangle ~4x faster than row-by-row pushes. The kernel fuses each
// multiply-add, so its sums can differ from pushed ones in the last bits
// (well within the 1e-12 equivalence the merge tests pin). With decay each
// row must rescale everything pushed before it, so the fold falls back to
// the exact per-row update.
func (c *CovAccumulator) PushBlock(flat []float64) error {
	if len(flat) == 0 {
		return nil
	}
	if c.m == 0 || len(flat)%c.m != 0 {
		return fmt.Errorf("stats: block of %d values is not a multiple of width %d: %w",
			len(flat), c.m, ErrWidth)
	}
	if err := c.validate(c.m, flat, nil); err != nil {
		return err
	}
	n := len(flat) / c.m
	if c.decay > 0 {
		for r := 0; r < n; r++ {
			c.fold(flat[r*c.m:(r+1)*c.m], 1)
		}
		return nil
	}
	for r := 0; r < n; r++ {
		for j, v := range flat[r*c.m : (r+1)*c.m] {
			c.sums[j] += v
		}
	}
	crossAccum(c.cross.RawData(), flat, n, c.m)
	c.n += n
	c.weight += float64(n)
	return nil
}

// Merge folds another accumulator of the same width and decay into c;
// other is left untouched. Because the single-pass sums are plain
// additions, accumulators built on disjoint row shards merge exactly — the
// basis for parallel mining over partitioned data (cf. the parallel
// association-mining line of work the paper cites). With decay each
// shard's rows keep the weights their own shard gave them, so Merge sums
// two independently decayed histories — the right semantics for shards fed
// round-robin at similar rates.
func (c *CovAccumulator) Merge(other *CovAccumulator) error {
	if other.m != c.m {
		return fmt.Errorf("stats: merging accumulator of width %d into %d: %w",
			other.m, c.m, ErrWidth)
	}
	if other.decay != c.decay {
		return fmt.Errorf("stats: merging accumulator with decay %v into decay %v", other.decay, c.decay)
	}
	c.weight += other.weight
	c.n += other.n
	for j := range c.sums {
		c.sums[j] += other.sums[j]
	}
	for j := 0; j < c.m; j++ {
		dst, src := c.cross.RawRow(j), other.cross.RawRow(j)
		for l := j; l < c.m; l++ {
			dst[l] += src[l]
		}
	}
	return nil
}

// Clone returns an independent copy of the accumulator: an O(M²) copy
// that later pushes to either side do not reach the other.
func (c *CovAccumulator) Clone() *CovAccumulator {
	out := *c
	out.sums = append([]float64(nil), c.sums...)
	out.cross = c.cross.Clone()
	return &out
}

// Count reports how many rows have been pushed (multiplicities included,
// undecayed).
func (c *CovAccumulator) Count() int { return c.n }

// Width reports the row width.
func (c *CovAccumulator) Width() int { return c.m }

// Decay reports the exponential decay λ (0 for a plain accumulator).
func (c *CovAccumulator) Decay() float64 { return c.decay }

// Means returns the (weighted) column averages of the pushed rows.
func (c *CovAccumulator) Means() ([]float64, error) {
	if c.n == 0 {
		return nil, ErrNoData
	}
	out := make([]float64, c.m)
	for j, s := range c.sums {
		out[j] = s / c.weight
	}
	return out, nil
}

// Scatter returns the centered scatter matrix Xcᵗ·Xc (the paper's C,
// Eq. 2): cross-products minus N·avg[j]·avg[l]. Eigenvectors of the scatter
// matrix equal those of the covariance matrix; only the eigenvalue scale
// differs by the 1/(N−1) factor.
func (c *CovAccumulator) Scatter() (*matrix.Dense, error) {
	means, err := c.Means()
	if err != nil {
		return nil, err
	}
	out := matrix.NewDense(c.m, c.m)
	for j := 0; j < c.m; j++ {
		for l := j; l < c.m; l++ {
			v := c.cross.At(j, l) - c.weight*means[j]*means[l]
			out.Set(j, l, v)
			out.Set(l, j, v)
		}
	}
	return out, nil
}

// Covariance returns the sample covariance matrix Scatter()/(N−1).
// With a single row it returns ErrNoData since the sample covariance is
// undefined.
func (c *CovAccumulator) Covariance() (*matrix.Dense, error) {
	if c.n < 2 {
		return nil, fmt.Errorf("stats: covariance needs at least 2 rows, have %d: %w", c.n, ErrNoData)
	}
	s, err := c.Scatter()
	if err != nil {
		return nil, err
	}
	return matrix.Scale(1/float64(c.n-1), s), nil
}

// CovState is an accumulator's complete state in plain fields; its JSON
// form is the body of a stream checkpoint. Cross holds the upper
// triangle: row j from column j on.
type CovState struct {
	Width  int         `json:"width"`
	Decay  float64     `json:"decay"`
	Weight float64     `json:"weight"`
	Count  int         `json:"count"`
	Sums   []float64   `json:"sums"`
	Cross  [][]float64 `json:"cross"`
}

// State returns a copy of the accumulator's state.
func (c *CovAccumulator) State() CovState {
	s := CovState{
		Width:  c.m,
		Decay:  c.decay,
		Weight: c.weight,
		Count:  c.n,
		Sums:   append([]float64(nil), c.sums...),
		Cross:  make([][]float64, c.m),
	}
	for j := range s.Cross {
		s.Cross[j] = append([]float64(nil), c.cross.RawRow(j)[j:]...)
	}
	return s
}

// RestoreCovAccumulator rebuilds an accumulator from a State, typically
// one decoded from disk or the wire, so it trusts nothing: the shapes must
// match the width (checked before the width² matrix is allocated), the
// decay must lie in [0, 1), and the counters must keep the invariants
// every push and merge keeps:
//
//   - count == 0 exactly when weight == 0;
//   - count > 0 implies 1 ≤ weight ≤ count (the newest row weighs 1);
//   - without decay, weight == count.
func RestoreCovAccumulator(s CovState) (*CovAccumulator, error) {
	if s.Width < 0 || len(s.Sums) != s.Width || len(s.Cross) != s.Width {
		return nil, fmt.Errorf("stats: corrupt state shapes (width %d, %d sums, %d cross rows): %w",
			s.Width, len(s.Sums), len(s.Cross), ErrWidth)
	}
	for j, tail := range s.Cross {
		if len(tail) != s.Width-j {
			return nil, fmt.Errorf("stats: corrupt state cross row %d (%d values, want %d): %w",
				j, len(tail), s.Width-j, ErrWidth)
		}
	}
	if err := checkDecay(s.Decay); err != nil {
		return nil, err
	}
	n := float64(s.Count)
	if s.Count < 0 || (s.Count == 0) != (s.Weight == 0) ||
		s.Count > 0 && !(s.Weight >= 1 && s.Weight <= n) ||
		s.Decay == 0 && s.Weight != n {
		return nil, fmt.Errorf("stats: corrupt state counters (count %d, weight %v, decay %v)",
			s.Count, s.Weight, s.Decay)
	}
	c := NewCovAccumulator(s.Width)
	c.decay, c.weight, c.n = s.Decay, s.Weight, s.Count
	copy(c.sums, s.Sums)
	for j, tail := range s.Cross {
		copy(c.cross.RawRow(j)[j:], tail)
	}
	return c, nil
}

// firstNonFinite returns the index of the first NaN or ±Inf in flat, or
// -1 when every value is finite. The hot path is the vectorized
// all-finite scan; the index hunt only runs on the error path.
func firstNonFinite(flat []float64) int {
	if AllFinite(flat) {
		return -1
	}
	for i, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// crossAccumGo is the portable rank-1 block update: for every row r of
// the block, cross[j][l] += r[j]·r[l] over the upper triangle. It is
// the non-amd64 body of crossAccum and the differential-testing oracle
// for the assembly kernel.
func crossAccumGo(cross, flat []float64, n, m int) {
	for r := 0; r < n; r++ {
		row := flat[r*m : (r+1)*m]
		for j, v := range row {
			if v == 0 {
				continue
			}
			dst := cross[j*m : (j+1)*m]
			for l := j; l < m; l++ {
				dst[l] += v * row[l]
			}
		}
	}
}

// allFiniteGo is the portable all-finite scan and the oracle for the
// assembly version.
func allFiniteGo(flat []float64) bool {
	for _, v := range flat {
		if v*0 != 0 {
			return false
		}
	}
	return true
}

// ScatterTwoPass computes the centered scatter matrix of x by first
// computing column means and then accumulating centered cross-products.
// It is the numerically safer textbook alternative to the paper's one-pass
// formula, retained as an ablation baseline and a test oracle.
func ScatterTwoPass(x *matrix.Dense) (*matrix.Dense, []float64) {
	n, m := x.Dims()
	means := x.ColMeans()
	out := matrix.NewDense(m, m)
	centered := make([]float64, m)
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		for j := range centered {
			centered[j] = row[j] - means[j]
		}
		for j := 0; j < m; j++ {
			cj := centered[j]
			if cj == 0 {
				continue
			}
			r := out.RawRow(j)
			for l := j; l < m; l++ {
				r[l] += cj * centered[l]
			}
		}
	}
	for j := 0; j < m; j++ {
		for l := j + 1; l < m; l++ {
			out.Set(l, j, out.At(j, l))
		}
	}
	return out, means
}

// ColStdDevs returns the per-column sample standard deviations of x.
// Columns of a matrix with fewer than two rows get 0.
func ColStdDevs(x *matrix.Dense) []float64 {
	n, m := x.Dims()
	out := make([]float64, m)
	if n < 2 {
		return out
	}
	scatter, _ := ScatterTwoPass(x)
	for j := 0; j < m; j++ {
		out[j] = math.Sqrt(scatter.At(j, j) / float64(n-1))
	}
	return out
}

// RMS returns the root-mean-square of the values, or 0 for an empty slice.
func RMS(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v * v
	}
	return math.Sqrt(s / float64(len(values)))
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// StdDev returns the sample standard deviation, or 0 with fewer than two
// values.
func StdDev(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	mu := Mean(values)
	var s float64
	for _, v := range values {
		d := v - mu
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// ZScore returns (v − mean)/std, or 0 when std is 0.
func ZScore(v, mean, std float64) float64 {
	if std == 0 {
		return 0
	}
	return (v - mean) / std
}

// Median returns the middle value (average of the two middles for even
// lengths), or 0 for an empty slice. The input is not modified.
func Median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}

// MADScale returns the median absolute deviation from the median, scaled
// by 1.4826 so it estimates the standard deviation for Gaussian data — a
// robust scale immune to a minority of wild values.
func MADScale(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	med := Median(values)
	dev := make([]float64, len(values))
	for i, v := range values {
		dev[i] = math.Abs(v - med)
	}
	return 1.4826 * Median(dev)
}
