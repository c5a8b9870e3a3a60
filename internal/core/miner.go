package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"ratiorules/internal/eigen"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/stats"
)

// DefaultEnergy is the paper's Eq. 1 cutoff: retain eigenvectors until
// their eigenvalues cover 85% of the total variance (Jolliffe's textbook
// heuristic).
const DefaultEnergy = 0.85

// RowSource yields the rows of a data matrix one at a time, enabling the
// single-pass mining algorithm to stream datasets far larger than memory.
// Next returns io.EOF after the last row; the returned slice may be reused
// by the source between calls.
type RowSource interface {
	// Width reports the number of attributes M in every row.
	Width() int
	// Next returns the next row or io.EOF when exhausted.
	Next() ([]float64, error)
}

// matrixSource adapts an in-memory matrix to RowSource.
type matrixSource struct {
	m *matrix.Dense
	i int
}

// NewMatrixSource returns a RowSource that iterates the rows of m.
func NewMatrixSource(m *matrix.Dense) RowSource { return &matrixSource{m: m} }

func (s *matrixSource) Width() int { return s.m.Cols() }

func (s *matrixSource) Next() ([]float64, error) {
	if s.i >= s.m.Rows() {
		return nil, io.EOF
	}
	row := s.m.RawRow(s.i)
	s.i++
	return row, nil
}

// Miner configures Ratio Rules mining. The zero value is not usable;
// construct with NewMiner and functional options.
type Miner struct {
	energy float64 // Eq. 1 threshold in (0, 1]
	fixedK int     // if > 0, retain exactly this many rules
	maxK   int     // if > 0, cap k after the energy cutoff
	attrs  []string
}

// Option customizes a Miner.
type Option func(*Miner) error

// WithEnergy sets the Eq. 1 variance-coverage threshold (default 0.85).
func WithEnergy(fraction float64) Option {
	return func(m *Miner) error {
		if fraction <= 0 || fraction > 1 {
			return fmt.Errorf("core: energy threshold %v outside (0, 1]", fraction)
		}
		m.energy = fraction
		return nil
	}
}

// WithFixedK retains exactly k rules, bypassing the energy cutoff.
// k = 0 is allowed and yields the col-avgs estimator (the paper notes
// col-avgs "is identical to the proposed method with k = 0").
func WithFixedK(k int) Option {
	return func(m *Miner) error {
		if k < 0 {
			return fmt.Errorf("core: fixed k %d is negative", k)
		}
		m.fixedK = k
		m.maxK = 0
		return nil
	}
}

// WithMaxK caps the number of rules retained after the energy cutoff.
func WithMaxK(k int) Option {
	return func(m *Miner) error {
		if k < 1 {
			return fmt.Errorf("core: max k %d must be at least 1", k)
		}
		m.maxK = k
		return nil
	}
}

// WithAttrNames attaches attribute names to the mined rules.
func WithAttrNames(names []string) Option {
	return func(m *Miner) error {
		m.attrs = append([]string(nil), names...)
		return nil
	}
}

// NewMiner returns a Miner with the paper's defaults (85% energy cutoff;
// every eigenvalue from eigen.SymEigLeading, eigenvectors only for the
// rules kept).
func NewMiner(opts ...Option) (*Miner, error) {
	m := &Miner{energy: DefaultEnergy, fixedK: -1}
	for _, o := range opts {
		if err := o(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Mine streams the rows of src once, accumulating column averages and the
// covariance matrix exactly as the paper's Fig. 2(a), then solves the
// eigensystem (Fig. 2(b)) and retains rules per the configured cutoff.
func (m *Miner) Mine(src RowSource) (*Rules, error) {
	return m.MineContext(context.Background(), src)
}

// MineContext is Mine with trace spans over the Fig. 2 phases —
// "mine.scan", "mine.covariance" and "mine.eigensolve" — parented to
// the span carried by ctx (no-ops without one). The phases also feed
// the rr_miner_phase_seconds histograms as before; spans add the
// per-run view.
func (m *Miner) MineContext(ctx context.Context, src RowSource) (*Rules, error) {
	return m.mine(ctx, src.Width(), func(acc *stats.CovAccumulator) error { return pushRows(src, acc) })
}

// pushRows drains src into acc.
func pushRows(src RowSource, acc *stats.CovAccumulator) error {
	for {
		row, err := src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: reading training rows: %w", err)
		}
		if err := acc.Push(row); err != nil {
			return fmt.Errorf("core: accumulating row %d: %w", acc.Count(), err)
		}
	}
}

// mine is the one tail behind every Mine* entry point. Each entry point
// is a source adapter: a fill function that pours its rows into one
// accumulator, or one fill per shard (run concurrently). mine checks the
// width, runs the fills as the scan phase, merges the shard
// accumulators, and solves the merged scatter matrix, with the phase
// timers, the mine.* spans and the run's metrics around all of it.
func (m *Miner) mine(ctx context.Context, width int, fills ...func(*stats.CovAccumulator) error) (*Rules, error) {
	if width <= 0 {
		return nil, fmt.Errorf("core: source width %d: %w", width, ErrWidth)
	}
	if m.attrs != nil && len(m.attrs) != width {
		return nil, fmt.Errorf("core: %d attribute names for width %d: %w", len(m.attrs), width, ErrWidth)
	}
	fail := func(err error) (*Rules, error) {
		recordMine(0, width, 0, err)
		return nil, err
	}
	accs := make([]*stats.CovAccumulator, len(fills))
	errs := make([]error, len(fills))
	scanTimer := obs.NewTimer(scanPhase)
	_, scanSpan := trace.Start(ctx, "mine.scan")
	var wg sync.WaitGroup
	for i, fill := range fills {
		accs[i] = stats.NewCovAccumulator(width)
		if i > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = fill(accs[i])
			}()
		}
	}
	errs[0] = fills[0](accs[0])
	wg.Wait()
	rows := 0
	for _, acc := range accs {
		rows += acc.Count()
	}
	scanSpan.SetAttr("rows", rows)
	scanSpan.End()
	scanElapsed := scanTimer.ObserveDuration()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}

	total := accs[0]
	if len(accs) > 1 {
		mergeTimer := obs.NewTimer(mergePhase)
		for _, acc := range accs[1:] {
			if err := total.Merge(acc); err != nil {
				return fail(fmt.Errorf("core: merging shard accumulators: %w", err))
			}
		}
		mergeTimer.ObserveDuration()
	}
	if total.Count() < 2 {
		return fail(fmt.Errorf("%w, got %d", ErrTooFewRows, total.Count()))
	}

	covTimer := obs.NewTimer(covariancePhase)
	_, covSpan := trace.Start(ctx, "mine.covariance")
	scatter, err := total.Scatter()
	var means []float64
	if err == nil {
		means, err = total.Means()
	}
	covSpan.End()
	covTimer.ObserveDuration()
	if err != nil {
		return fail(fmt.Errorf("core: building covariance: %w", err))
	}
	rules, err := m.rulesFromScatter(ctx, scatter, means, total.Count())
	recordMine(total.Count(), width, scanElapsed, err)
	return rules, err
}

// MineMatrix is a convenience wrapper for in-memory matrices.
func (m *Miner) MineMatrix(x *matrix.Dense) (*Rules, error) {
	return m.Mine(NewMatrixSource(x))
}

// MineMatrixContext is MineContext for in-memory matrices.
func (m *Miner) MineMatrixContext(ctx context.Context, x *matrix.Dense) (*Rules, error) {
	return m.MineContext(ctx, NewMatrixSource(x))
}

// rulesFromScatter solves the eigensystem of the scatter matrix and applies
// the retention cutoff: every eigenvalue, and eigenvectors only for the k
// rules kept.
func (m *Miner) rulesFromScatter(ctx context.Context, scatter *matrix.Dense, means []float64, n int) (*Rules, error) {
	var (
		total float64
		k     int
	)
	eigTimer := obs.NewTimer(eigensolvePhase)
	_, eigSpan := trace.Start(ctx, "mine.eigensolve")
	sys, err := eigen.SymEigLeading(scatter, func(values []float64) int {
		total = clampPSD(values)
		k = m.chooseK(values, total)
		return k
	})
	eigSpan.End()
	eigTimer.ObserveDuration()
	if err != nil {
		return nil, fmt.Errorf("core: eigensystem of %d×%d covariance: %w",
			scatter.Rows(), scatter.Cols(), err)
	}
	return m.rulesFromSystem(scatter, means, n, sys, total, k), nil
}

// clampPSD zeroes round-off negatives among the eigenvalues of a scatter
// matrix, which is PSD, and returns their sum.
func clampPSD(values []float64) float64 {
	var total float64
	for i, l := range values {
		if l < 0 {
			values[i] = 0
		}
		total += values[i]
	}
	return total
}

// rulesFromSystem keeps the leading k eigenpairs of the scatter matrix's
// eigensystem sys (whose eigenvalues sum to total) as the rule set.
func (m *Miner) rulesFromSystem(scatter *matrix.Dense, means []float64, n int, sys *eigen.System, total float64, k int) *Rules {
	minerRulesRetained.Set(float64(k))
	cols := make([]int, k)
	for i := range cols {
		cols[i] = i
	}
	// Per-attribute residual variance: training variance minus the part
	// captured by the retained rules. This prices the uncertainty of a
	// reconstructed cell (see Rules.ResidualStd / FillRecordWithBands).
	dim, _ := scatter.Dims()
	residStd := make([]float64, dim)
	denom := float64(n - 1)
	for j := 0; j < dim; j++ {
		captured := 0.0
		for i := 0; i < k; i++ {
			v := sys.Vectors.At(j, i)
			captured += sys.Values[i] * v * v
		}
		if resid := scatter.At(j, j) - captured; resid > 0 && denom > 0 {
			residStd[j] = math.Sqrt(resid / denom)
		}
	}
	v := sys.Vectors.SelectCols(cols)
	return &Rules{
		attrs:         m.attrs,
		means:         means,
		v:             v,
		eigenvalues:   append([]float64(nil), sys.Values[:k]...),
		totalVariance: total,
		trainedRows:   n,
		residStd:      residStd,
		lev:           leverages(v),
	}
}

// chooseK implements Eq. 1: the smallest k whose eigenvalues cover the
// energy threshold, clamped by fixedK/maxK when configured.
func (m *Miner) chooseK(values []float64, total float64) int {
	if m.fixedK >= 0 {
		if m.fixedK > len(values) {
			return len(values)
		}
		return m.fixedK
	}
	if total <= 0 {
		return 0
	}
	var sum float64
	k := len(values)
	for i, l := range values {
		sum += l
		if sum/total >= m.energy {
			k = i + 1
			break
		}
	}
	if m.maxK > 0 && k > m.maxK {
		k = m.maxK
	}
	return k
}
