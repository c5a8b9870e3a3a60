package ratiorules

// The consolidated facade API: one Options struct configured by
// functional setters drives mining, filling, cleaning and the batch
// inference calls.

import (
	"fmt"

	"ratiorules/internal/core"
)

// Batch types, re-exported from internal/core. The Batch* calls stream
// rows through a bounded worker pool.
type (
	// BatchOptions tunes a batch run directly at the core layer; the
	// facade fills it from Options.
	BatchOptions = core.BatchOptions
	// FillJob / FillResult are one row of a batch fill.
	FillJob    = core.FillJob
	FillResult = core.FillResult
	// ForecastJob / ForecastResult are one query of a batch forecast.
	ForecastJob    = core.ForecastJob
	ForecastResult = core.ForecastResult
	// OutlierJob / OutlierResult are one record of a batch outlier scan.
	OutlierJob    = core.OutlierJob
	OutlierResult = core.OutlierResult
)

// ErrNoResiduals reports per-row outlier scoring on a legacy model
// mined without residual deviation bands.
var ErrNoResiduals = core.ErrNoResiduals

// DefaultOutlierSigma is the outlier threshold used when Options.Sigma
// is unset.
const DefaultOutlierSigma = core.DefaultOutlierSigma

// DefaultBatchWorkers is the worker-pool width used when
// Options.Workers is unset: one worker per available CPU.
func DefaultBatchWorkers() int { return core.DefaultBatchWorkers() }

// Options consolidates every knob of the facade entry points, the
// facade's one option vocabulary. The zero value selects the paper's
// defaults (85% energy cutoff, no rule cap, 2-sigma outliers, one batch
// worker per CPU). Fields may be set directly or through the Opt
// setters.
type Options struct {
	// Energy is the Eq. 1 variance-coverage threshold in (0, 1];
	// 0 selects DefaultEnergy, and any other value outside the range
	// fails the call.
	Energy float64
	// FixedK, when non-nil, retains exactly *FixedK rules instead of
	// applying the energy cutoff; a negative count fails the call.
	FixedK *int
	// MaxK caps the rule count after the energy cutoff; 0 leaves it
	// uncapped, and a negative cap fails the call.
	MaxK int
	// AttrNames attaches attribute names to the mined rules.
	AttrNames []string

	// Workers bounds the batch worker pool; 0 selects
	// DefaultBatchWorkers().
	Workers int
	// Sigma is the outlier threshold in residual standard deviations;
	// 0 selects DefaultOutlierSigma.
	Sigma float64
}

// Opt is a functional setter for Options.
type Opt func(*Options)

// Energy sets the Eq. 1 variance-coverage threshold in (0, 1]; 0
// selects DefaultEnergy.
func Energy(fraction float64) Opt { return func(o *Options) { o.Energy = fraction } }

// FixedK retains exactly k rules (k = 0 degenerates to col-avgs).
func FixedK(k int) Opt { return func(o *Options) { o.FixedK = &k } }

// MaxK caps the rule count after the energy cutoff; 0 leaves it
// uncapped.
func MaxK(k int) Opt { return func(o *Options) { o.MaxK = k } }

// AttrNames attaches attribute names to the mined rules.
func AttrNames(names ...string) Opt { return func(o *Options) { o.AttrNames = names } }

// Workers bounds the batch worker pool width.
func Workers(n int) Opt { return func(o *Options) { o.Workers = n } }

// Sigma sets the outlier threshold in residual standard deviations.
func Sigma(s float64) Opt { return func(o *Options) { o.Sigma = s } }

// buildOptions folds the setters over a zero Options.
func buildOptions(opts []Opt) Options {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// minerOptions lowers Options onto the core miner configuration. Every
// set value goes to core's validating option, so an out-of-range one
// fails instead of selecting the default.
func (o Options) minerOptions() []core.Option {
	var out []core.Option
	if o.Energy != 0 {
		out = append(out, core.WithEnergy(o.Energy))
	}
	if o.FixedK != nil {
		out = append(out, core.WithFixedK(*o.FixedK))
	}
	if o.MaxK != 0 {
		out = append(out, core.WithMaxK(o.MaxK))
	}
	if o.AttrNames != nil {
		out = append(out, core.WithAttrNames(o.AttrNames))
	}
	return out
}

// batchOptions lowers Options onto the core batch configuration.
func (o Options) batchOptions() BatchOptions {
	return BatchOptions{Workers: o.Workers, Sigma: o.Sigma}
}

// Mine mines Ratio Rules from an in-memory matrix:
//
//	rules, err := ratiorules.Mine(x, ratiorules.Energy(0.9),
//		ratiorules.AttrNames("bread", "milk", "butter"))
func Mine(x *Matrix, opts ...Opt) (*Rules, error) {
	miner, err := core.NewMiner(buildOptions(opts).minerOptions()...)
	if err != nil {
		return nil, err
	}
	return miner.MineMatrix(x)
}

// MineRows mines Ratio Rules from equally-long rows.
func MineRows(rows [][]float64, opts ...Opt) (*Rules, error) {
	x, err := MatrixFromRows(rows)
	if err != nil {
		return nil, err
	}
	return Mine(x, opts...)
}

// MineStream mines Ratio Rules in a single pass over a RowSource
// without materializing the matrix.
func MineStream(src RowSource, opts ...Opt) (*Rules, error) {
	miner, err := core.NewMiner(buildOptions(opts).minerOptions()...)
	if err != nil {
		return nil, err
	}
	return miner.Mine(src)
}

// CoreMiner builds the low-level Miner from the same Opt setters as
// Mine/MineRows/MineStream — the escape hatch to the extension surface
// that lives on Miner methods (MineSharded, MineSparse, MineWeighted,
// MineRobust, MineWithHoles).
func CoreMiner(opts ...Opt) (*Miner, error) {
	return core.NewMiner(buildOptions(opts).minerOptions()...)
}

// Fill reconstructs the listed holes of one record (nil holes derives
// them from Hole markers). No option changes a single fill; opts is
// accepted so call sites can pass the options they share with Clean and
// the batch calls.
func Fill(rules *Rules, record []float64, holes []int, opts ...Opt) ([]float64, error) {
	if holes == nil {
		for j, v := range record {
			if IsHole(v) {
				holes = append(holes, j)
			}
		}
	}
	return rules.FillRow(record, holes)
}

// Clean repairs every Hole-marked cell of x in place through the batch
// engine and reports how many cells were filled.
func Clean(rules *Rules, x *Matrix, opts ...Opt) (int, error) {
	o := buildOptions(opts)
	rows := make([][]float64, x.Rows())
	for i := range rows {
		rows[i] = x.RawRow(i)
	}
	filled := 0
	for _, res := range rules.BatchFillSlice(rows, nil, o.batchOptions()) {
		if res.Err != nil {
			return filled, fmt.Errorf("ratiorules: cleaning row %d: %w", res.Index, res.Err)
		}
		row := rows[res.Index]
		for j, v := range row {
			if IsHole(v) {
				row[j] = res.Filled[j]
				filled++
			}
		}
	}
	return filled, nil
}

// BatchFill fills rows[i] with hole set holes[i] (nil holes, or a nil
// entry, derives holes from Hole markers) on the worker pool. Results
// are indexed like rows; a
// failed row reports its error without affecting the others.
func BatchFill(rules *Rules, rows [][]float64, holes [][]int, opts ...Opt) []FillResult {
	return rules.BatchFillSlice(rows, holes, buildOptions(opts).batchOptions())
}

// BatchForecast answers the forecasting queries on the worker pool.
func BatchForecast(rules *Rules, queries []ForecastJob, opts ...Opt) []ForecastResult {
	return rules.BatchForecastSlice(queries, buildOptions(opts).batchOptions())
}

// BatchOutliers scores each record's cells against the model's
// training residual bands on the worker pool. Models mined before
// residual bands existed report ErrNoResiduals per row.
func BatchOutliers(rules *Rules, rows [][]float64, opts ...Opt) []OutlierResult {
	return rules.BatchOutliersSlice(rows, buildOptions(opts).batchOptions())
}
