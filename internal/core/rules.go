// Package core implements Ratio Rules, the primary contribution of Korn,
// Labrinidis, Kotidis and Faloutsos, "Ratio Rules: A New Paradigm for Fast,
// Quantifiable Data Mining" (VLDB 1998).
//
// A Ratio Rule is an eigenvector of the covariance matrix of an N×M data
// matrix (customers × products): the direction captures the ratios in which
// attribute values co-occur ("customers typically spend 1:2:5 on
// bread:milk:butter"). The package provides:
//
//   - single-pass mining of the top-k rules with the 85%-variance cutoff
//     (Fig. 2 and Eq. 1 of the paper);
//   - reconstruction of hidden/missing values from partial records,
//     distinguishing the exactly-, over- and under-specified cases
//     (Sec. 4.4, Fig. 3);
//   - the "guessing error" quality measure GE₁/GEh (Sec. 4.3, Eqs. 3-4);
//   - outlier detection, what-if scenarios and low-dimensional projection
//     for visualization (Sec. 3 and 6).
package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"ratiorules/internal/matrix"
)

// Sentinel errors returned by the package.
var (
	// ErrNoRules indicates an operation that needs at least one retained
	// rule was invoked on an empty rule set.
	ErrNoRules = errors.New("core: rule set has no rules")
	// ErrTooFewRows indicates mining asked of fewer than the two rows a
	// covariance matrix needs.
	ErrTooFewRows = errors.New("core: mining needs at least 2 rows")
	// ErrBadHole indicates a hole index that is negative, out of range or
	// duplicated.
	ErrBadHole = errors.New("core: invalid hole index")
	// ErrWidth indicates a record whose width differs from the rules'.
	ErrWidth = errors.New("core: record width mismatch")
	// ErrBadRules indicates a serialized rule set the solves cannot
	// trust: rule vectors that are not orthonormal, or eigenvalues that
	// are non-finite, negative or not descending.
	ErrBadRules = errors.New("core: invalid rule set")
)

// Rules is a mined set of Ratio Rules: the k strongest eigenvectors of the
// training data's covariance matrix, together with the column means needed
// to center new records and the eigenvalue spectrum that justified the
// cutoff.
//
// Rules is immutable after mining; all methods are safe for concurrent use.
type Rules struct {
	// attrs names the M attributes (may be nil when unnamed).
	attrs []string
	// means holds the M column averages of the training matrix.
	means []float64
	// v is the M×k matrix whose columns are the retained eigenvectors,
	// strongest first (the paper's RR matrix V).
	v *matrix.Dense
	// eigenvalues holds the k retained eigenvalues, descending.
	eigenvalues []float64
	// totalVariance is the sum of all M eigenvalues, for energy accounting.
	totalVariance float64
	// trainedRows is the number of training records the rules were mined
	// from.
	trainedRows int
	// residStd[j] is the per-attribute residual standard deviation: the
	// square root of attribute j's training variance NOT captured by the
	// retained rules. It quantifies how far real records sit from the
	// RR-hyperplane along attribute j, and hence the uncertainty of a
	// reconstructed cell. Nil for rule sets loaded from pre-band formats.
	residStd []float64
	// lev[j] is attribute j's leverage for the single-hole solves (see
	// leverages), computed once where the rule set is built.
	lev []float64
}

// K reports the number of retained rules.
func (r *Rules) K() int {
	if r.v == nil {
		return 0
	}
	_, k := r.v.Dims()
	return k
}

// M reports the number of attributes.
func (r *Rules) M() int { return len(r.means) }

// TrainedRows reports how many records were used to mine the rules.
func (r *Rules) TrainedRows() int { return r.trainedRows }

// Means returns a copy of the training column averages.
func (r *Rules) Means() []float64 {
	out := make([]float64, len(r.means))
	copy(out, r.means)
	return out
}

// Eigenvalues returns a copy of the retained eigenvalues, descending.
func (r *Rules) Eigenvalues() []float64 {
	out := make([]float64, len(r.eigenvalues))
	copy(out, r.eigenvalues)
	return out
}

// TotalVariance returns the sum of all M eigenvalues of the training
// scatter matrix, retained and discarded alike.
func (r *Rules) TotalVariance() float64 { return r.totalVariance }

// EnergyCovered returns the fraction of total variance captured by the
// retained rules (the left side of Eq. 1).
func (r *Rules) EnergyCovered() float64 {
	if r.totalVariance <= 0 {
		return 0
	}
	var s float64
	for _, l := range r.eigenvalues {
		s += l
	}
	return s / r.totalVariance
}

// ResidualStd returns the training residual standard deviation of
// attribute j — the typical distance of real records from the
// RR-hyperplane along that attribute, and therefore the 1-sigma
// uncertainty of a reconstructed cell. It returns 0 when the information
// was not recorded (legacy serialized rules).
func (r *Rules) ResidualStd(j int) float64 {
	if j < 0 || j >= r.M() {
		panic(fmt.Sprintf("core: attribute index %d out of range [0,%d)", j, r.M()))
	}
	if r.residStd == nil {
		return 0
	}
	return r.residStd[j]
}

// Rule returns a copy of the i-th strongest rule as a unit M-vector.
func (r *Rules) Rule(i int) []float64 {
	if i < 0 || i >= r.K() {
		panic(fmt.Sprintf("core: rule index %d out of range [0,%d)", i, r.K()))
	}
	return r.v.Col(i)
}

// Vectors returns a copy of the M×k rule matrix V.
func (r *Rules) Vectors() *matrix.Dense { return r.v.Clone() }

// AttrNames returns the attribute names, or nil when unnamed.
func (r *Rules) AttrNames() []string {
	if r.attrs == nil {
		return nil
	}
	out := make([]string, len(r.attrs))
	copy(out, r.attrs)
	return out
}

// AttrName returns the name of attribute j, falling back to "attrJ".
func (r *Rules) AttrName(j int) string {
	if j >= 0 && j < len(r.attrs) && r.attrs[j] != "" {
		return r.attrs[j]
	}
	return fmt.Sprintf("attr%d", j)
}

// Ratio returns the ratio coefficients of attributes a and b under rule i,
// i.e. the pair (V[a][i], V[b][i]). The paper reads these as "spendings on
// a:b are close to ratio V[a][i]:V[b][i]".
func (r *Rules) Ratio(i, a, b int) (float64, float64) {
	if a < 0 || a >= r.M() || b < 0 || b >= r.M() {
		panic(fmt.Sprintf("core: attribute index out of range: %d, %d (M=%d)", a, b, r.M()))
	}
	return r.v.At(a, i), r.v.At(b, i)
}

// String renders the rule set as a table in the style of the paper's
// Table 2: one row per attribute, one column per rule, suppressing
// coefficients below 0.05 in magnitude for readability.
func (r *Rules) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ratio Rules: k=%d of M=%d attributes, %.1f%% energy, %d training rows\n",
		r.K(), r.M(), 100*r.EnergyCovered(), r.trainedRows)
	fmt.Fprintf(&b, "%-22s", "attribute")
	for i := 0; i < r.K(); i++ {
		fmt.Fprintf(&b, "%10s", fmt.Sprintf("RR%d", i+1))
	}
	b.WriteByte('\n')
	for j := 0; j < r.M(); j++ {
		fmt.Fprintf(&b, "%-22s", r.AttrName(j))
		for i := 0; i < r.K(); i++ {
			v := r.v.At(j, i)
			if math.Abs(v) < 0.05 {
				fmt.Fprintf(&b, "%10s", "-")
			} else {
				fmt.Fprintf(&b, "%10.3f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// rulesJSON is the serialized wire form of Rules.
type rulesJSON struct {
	Attrs         []string    `json:"attrs,omitempty"`
	Means         []float64   `json:"means"`
	Eigenvalues   []float64   `json:"eigenvalues"`
	TotalVariance float64     `json:"total_variance"`
	TrainedRows   int         `json:"trained_rows"`
	Vectors       [][]float64 `json:"vectors"` // row-major M×k
	ResidualStd   []float64   `json:"residual_std,omitempty"`
}

// MarshalJSON encodes the rule set as compact JSON: the document Save
// writes, without its indentation and final newline. Load reads either.
func (r *Rules) MarshalJSON() ([]byte, error) {
	m, k := r.M(), r.K()
	rows := make([][]float64, m)
	cells := []float64{} // each row encodes as [], never null
	if k > 0 {
		cells = r.v.RawData()
	}
	for j := range rows {
		rows[j] = cells[j*k : (j+1)*k : (j+1)*k]
	}
	b, err := json.Marshal(rulesJSON{
		Attrs:         r.attrs,
		Means:         r.means,
		Eigenvalues:   r.eigenvalues,
		TotalVariance: r.totalVariance,
		TrainedRows:   r.trainedRows,
		Vectors:       rows,
		ResidualStd:   r.residStd,
	})
	if err != nil {
		return nil, fmt.Errorf("core: encoding rules: %w", err)
	}
	return b, nil
}

// Save writes the rule set as indented JSON to w, so mined rules can be
// stored and applied later without re-reading the training data.
func (r *Rules) Save(w io.Writer) error {
	b, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Grow(2 * len(b))
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return fmt.Errorf("core: saving rules: %w", err)
	}
	buf.WriteByte('\n')
	if _, err := buf.WriteTo(w); err != nil {
		return fmt.Errorf("core: saving rules: %w", err)
	}
	return nil
}

// orthoTol bounds max|VᵗV − I| for a loaded rule set. Mined models sit
// below 1e-13; the closed-form solves assume VᵗV = I.
const orthoTol = 1e-9

// Load reads a rule set previously written by Save or MarshalJSON; only
// JSON white space may follow it. It fails with ErrBadRules when the
// vectors are not orthonormal to within orthoTol or the eigenvalues are
// non-finite, negative or not descending.
func Load(rd io.Reader) (*Rules, error) {
	var j rulesJSON
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&j); err != nil {
		return nil, fmt.Errorf("core: loading rules: %w", err)
	}
	if tok, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = fmt.Errorf("unexpected %v", tok)
		}
		return nil, fmt.Errorf("core: loading rules: after the rule set: %w", err)
	}
	v, err := matrix.FromRows(j.Vectors)
	if err != nil {
		return nil, fmt.Errorf("core: loading rules: %w", err)
	}
	rows, k := v.Dims()
	if rows != len(j.Means) {
		return nil, fmt.Errorf("core: loading rules: %d vector rows for %d means: %w",
			rows, len(j.Means), ErrWidth)
	}
	if k != len(j.Eigenvalues) {
		return nil, fmt.Errorf("core: loading rules: %d vector columns for %d eigenvalues: %w",
			k, len(j.Eigenvalues), ErrWidth)
	}
	if j.Attrs != nil && len(j.Attrs) != len(j.Means) {
		return nil, fmt.Errorf("core: loading rules: %d attribute names for %d means: %w",
			len(j.Attrs), len(j.Means), ErrWidth)
	}
	if j.ResidualStd != nil && len(j.ResidualStd) != len(j.Means) {
		return nil, fmt.Errorf("core: loading rules: %d residual stds for %d means: %w",
			len(j.ResidualStd), len(j.Means), ErrWidth)
	}
	if err := checkRules(v, j.Eigenvalues); err != nil {
		return nil, fmt.Errorf("core: loading rules: %w", err)
	}
	return &Rules{
		attrs:         j.Attrs,
		means:         j.Means,
		v:             v,
		eigenvalues:   j.Eigenvalues,
		totalVariance: j.TotalVariance,
		trainedRows:   j.TrainedRows,
		residStd:      j.ResidualStd,
		lev:           leverages(v),
	}, nil
}

// checkRules enforces what the solves assume of an M×k rule matrix v and
// its eigenvalues: VᵗV = I, and a finite, non-negative, descending
// spectrum (Case 3 keeps the leading rules).
func checkRules(v *matrix.Dense, eigenvalues []float64) error {
	for i, l := range eigenvalues {
		if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
			return fmt.Errorf("eigenvalue %d is %v: %w", i, l, ErrBadRules)
		}
		if i > 0 && l > eigenvalues[i-1] {
			return fmt.Errorf("eigenvalue %d (%v) exceeds eigenvalue %d (%v): %w", i, l, i-1, eigenvalues[i-1], ErrBadRules)
		}
	}
	m, k := v.Dims()
	for c := 0; c < k; c++ {
		for d := 0; d <= c; d++ {
			var s float64
			for j := 0; j < m; j++ {
				s += v.At(j, c) * v.At(j, d)
			}
			if c == d {
				s--
			}
			if !(math.Abs(s) <= orthoTol) {
				return fmt.Errorf("rule vectors %d and %d: VᵗV − I = %v: %w", c, d, s, ErrBadRules)
			}
		}
	}
	return nil
}
