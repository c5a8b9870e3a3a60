// Package ratiorules implements Ratio Rules, the data-mining paradigm of
// Korn, Labrinidis, Kotidis and Faloutsos, "Ratio Rules: A New Paradigm for
// Fast, Quantifiable Data Mining" (VLDB 1998).
//
// A Ratio Rule is an eigenvector of the covariance matrix of a numeric
// N×M data matrix (e.g. customers × products): it captures the ratios in
// which attribute values co-occur, such as "customers typically spend
// 1:2:5 dollars on bread:milk:butter". Unlike Boolean or quantitative
// association rules, Ratio Rules support reconstruction of missing values,
// which makes the quality of a rule set quantifiable through the paper's
// "guessing error" and enables forecasting, what-if analysis, outlier
// detection, data cleaning and visualization.
//
// # Mining
//
// Rules are mined in a single pass over the data — column averages and the
// covariance matrix are accumulated streamingly, then an in-memory
// eigensolve ranks the directions of greatest variance and the 85%-energy
// cutoff (Eq. 1 of the paper) decides how many rules to keep. Every entry
// point, the stream miners and CoreMiner included, is configured by the
// same Opt setters over one Options struct:
//
//	rules, err := ratiorules.Mine(x, ratiorules.AttrNames(names...))
//	rules, err := ratiorules.MineRows(rows, ratiorules.Energy(0.9))
//	rules, err := ratiorules.MineStream(src)    // streaming RowSource
//	sm, err := ratiorules.NewStreamMiner(m, 0.01, ratiorules.MaxK(3))
//
// # Reconstruction and applications
//
//	full, err := ratiorules.Fill(rules, []float64{10, 3, ratiorules.Hole}, nil)
//	ge, err := ratiorules.GE1(rules, testMatrix) // quality of the rule set
//	out, err := rules.CellOutliers(x, 2)         // 2-sigma outliers
//	fc, err := rules.Forecast(map[int]float64{0: 1.0, 1: 2.5}, 2)
//	xy, err := rules.Project(x, 2)               // 2-d visualization
//
// # Batch inference
//
// The Batch* calls answer many rows at once on a bounded worker pool;
// Clean repairs a whole matrix in place:
//
//	res := ratiorules.BatchFill(rules, rows, nil, ratiorules.Workers(8))
//	n, err := ratiorules.Clean(rules, x)
//
// The package is a facade over internal/core and its numeric substrates
// (all implemented from scratch on the standard library): dense matrices,
// a symmetric eigensolver, and SVD with Moore–Penrose pseudo-inverse,
// which backs the closed-form fills where they are ill-conditioned.
package ratiorules

import (
	"io"

	"ratiorules/internal/core"
	"ratiorules/internal/dataset"
	"ratiorules/internal/matrix"
)

// Core types, aliased so the public surface and the implementation cannot
// drift apart.
type (
	// Rules is a mined, immutable set of Ratio Rules.
	Rules = core.Rules
	// Miner configures and runs rule mining.
	Miner = core.Miner
	// RowSource streams data-matrix rows for single-pass mining.
	RowSource = core.RowSource
	// Estimator reconstructs hidden cells of a record; Rules, ColAvgs and
	// regress.Model all satisfy it, so the guessing error can rank any of
	// them (the paper's Sec. 4.3 point).
	Estimator = core.Estimator
	// ColAvgs is the paper's straightforward competitor (k = 0 rules).
	ColAvgs = core.ColAvgs
	// GEhConfig controls the h-hole guessing error.
	GEhConfig = core.GEhConfig
	// Scenario is a partial record for what-if analysis.
	Scenario = core.Scenario
	// CellOutlier and RowOutlier are outlier-detection results.
	CellOutlier = core.CellOutlier
	RowOutlier  = core.RowOutlier
	// BandedFill is a reconstruction with 1-sigma uncertainty per filled
	// cell (see Rules.FillRecordWithBands).
	BandedFill = core.BandedFill
	// Matrix is the dense row-major matrix type used throughout.
	Matrix = matrix.Dense
	// SparseVec is a sparse row for wide, mostly-zero matrices (market
	// baskets); mine them with Miner.MineSparse.
	SparseVec = matrix.SparseVec
	// SparseRowSource streams sparse rows for single-pass sparse mining.
	SparseRowSource = core.SparseRowSource
)

// Sentinel errors, re-exported for errors.Is checks.
var (
	ErrNoRules    = core.ErrNoRules
	ErrTooFewRows = core.ErrTooFewRows
	ErrBadHole    = core.ErrBadHole
	ErrWidth      = core.ErrWidth
	// ErrBadRules marks a rule set LoadRules refuses: vectors that are
	// not orthonormal, or eigenvalues that are non-finite, negative or
	// not descending.
	ErrBadRules = core.ErrBadRules
)

// Hole marks an unknown cell in a record passed to Rules.FillRecord.
var Hole = core.Hole

// IsHole reports whether a value is the Hole marker.
func IsHole(v float64) bool { return core.IsHole(v) }

// DefaultEnergy is the paper's Eq. 1 cutoff threshold (85%).
const DefaultEnergy = core.DefaultEnergy

// LoadStreamMiner restores a StreamMiner checkpoint written with
// StreamMiner.Save, configured by the same Opt setters as Mine; resuming
// and pushing the remaining rows reproduces an uninterrupted run exactly.
func LoadStreamMiner(r io.Reader, opts ...Opt) (*StreamMiner, error) {
	return core.LoadStreamMiner(r, buildOptions(opts).minerOptions()...)
}

// Robust-mining extension: alternate mining with row-outlier trimming so a
// few grossly corrupted records cannot rotate the rules.
type (
	RobustConfig = core.RobustConfig
	RobustResult = core.RobustResult
)

// EM mining extension: mine directly from matrices with Hole-marked cells
// by iterating fill and re-mine (PCA-with-missing-data style), instead of
// discarding incomplete rows.
type (
	EMConfig = core.EMConfig
	EMResult = core.EMResult
)

// Weighted-row mining: count-compressed tables (identical baskets stored
// with a multiplicity) mine in one pass over the distinct rows.
type (
	WeightedRow         = core.WeightedRow
	WeightedRowSource   = core.WeightedRowSource
	WeightedSliceSource = core.WeightedSliceSource
)

// NewMatrixSource adapts an in-memory matrix to a RowSource.
func NewMatrixSource(m *Matrix) RowSource { return core.NewMatrixSource(m) }

// NewColAvgs builds the column-average competitor from training means.
func NewColAvgs(means []float64) *ColAvgs { return core.NewColAvgs(means) }

// GE1 is the single-hole guessing error of Def. 1 (Eq. 3): the RMS error
// of reconstructing each cell of test from the rest of its row.
func GE1(est Estimator, test *Matrix) (float64, error) { return core.GE1(est, test) }

// GEh is the h-hole guessing error of Def. 2 (Eq. 4).
func GEh(est Estimator, test *Matrix, cfg GEhConfig) (float64, error) {
	return core.GEh(est, test, cfg)
}

// GECurve evaluates GEh for h = 1..maxHoles (the paper's Fig. 6 series).
func GECurve(est Estimator, test *Matrix, maxHoles int, cfg GEhConfig) ([]float64, error) {
	return core.GECurve(est, test, maxHoles, cfg)
}

// LoadRules reads a rule set previously written with Rules.Save or
// Rules.MarshalJSON; only JSON white space may follow it.
func LoadRules(r io.Reader) (*Rules, error) { return core.Load(r) }

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return matrix.NewDense(rows, cols) }

// MatrixFromRows builds a matrix by copying the given equally-long rows.
func MatrixFromRows(rows [][]float64) (*Matrix, error) { return matrix.FromRows(rows) }

// NewSparseVec builds a validated sparse row from parallel index/value
// slices (indices sorted, distinct, in range).
func NewSparseVec(length int, idx []int, val []float64) (SparseVec, error) {
	return matrix.NewSparseVec(length, idx, val)
}

// SparsifyRow converts a dense row to sparse form, dropping |v| <= eps.
func SparsifyRow(row []float64, eps float64) SparseVec { return matrix.SparsifyRow(row, eps) }

// StreamMiner maintains the single-pass sufficient statistics
// incrementally so rules can be re-derived at any point of an unbounded
// stream, optionally with exponential decay to track drifting ratios.
// This extends the paper's one-pass algorithm to continuous operation.
type StreamMiner = core.StreamMiner

// NewStreamMiner returns a stream miner for rows of the given width with
// decay lambda in [0, 1), configured by the same Opt setters as Mine;
// lambda = 0 reproduces batch mining exactly.
func NewStreamMiner(width int, lambda float64, opts ...Opt) (*StreamMiner, error) {
	return core.NewStreamMiner(width, lambda, buildOptions(opts).minerOptions()...)
}

// Categorical-data support (the paper's stated future work): one-hot
// encoding of mixed records so Ratio Rules can mine and reconstruct
// categorical fields.
type (
	// Field describes one column of a mixed record.
	Field = dataset.Field
	// CategoricalEncoder one-hot encodes mixed categorical/numeric
	// records and decodes reconstructed rows back (argmax per category).
	CategoricalEncoder = dataset.CategoricalEncoder
)

// NewCategoricalEncoder returns an encoder for the given mixed schema.
func NewCategoricalEncoder(fields []Field) *CategoricalEncoder {
	return dataset.NewCategoricalEncoder(fields)
}
