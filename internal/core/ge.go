package core

import (
	"fmt"
	"math"
	"math/rand"

	"ratiorules/internal/matrix"
)

// GE1 computes the single-hole guessing error of Def. 1 (Eq. 3): for every
// cell of the test matrix, pretend it is hidden, reconstruct it from the
// rest of its row with est, and return the root-mean-square of the
// reconstruction errors over all N·M cells.
//
// For a *Rules estimator the M single-hole errors of a row come from one
// projection (the leave-one-out identity of solve.go), so GE₁ costs
// O(M·k) per row; other estimators fill cell by cell.
func GE1(est Estimator, test *matrix.Dense) (float64, error) {
	n, m := test.Dims()
	if m != est.Width() {
		return 0, fmt.Errorf("core: GE1 on %d-wide matrix with %d-wide estimator: %w",
			m, est.Width(), ErrWidth)
	}
	if n == 0 || m == 0 {
		return 0, nil
	}
	var sum float64
	if r, ok := est.(*Rules); ok {
		loo, err := r.newLOO()
		if err != nil {
			return 0, fmt.Errorf("core: GE1: %w", err)
		}
		sc := loo.scratch()
		for i := 0; i < n; i++ {
			for _, d := range loo.errs(test.RawRow(i), sc) {
				sum += d * d
			}
		}
	} else {
		hole := make([]int, 1)
		for i := 0; i < n; i++ {
			row := test.RawRow(i)
			for j := 0; j < m; j++ {
				hole[0] = j
				filled, err := est.FillRow(row, hole)
				if err != nil {
					return 0, fmt.Errorf("core: GE1 at cell (%d,%d): %w", i, j, err)
				}
				d := filled[j] - row[j]
				sum += d * d
			}
		}
	}
	ge := math.Sqrt(sum / float64(n*m))
	recordGE("ge1", 1, ge)
	return ge, nil
}

// GEOptions is kept so existing GE1With callers compile; it has no
// fields.
//
// Deprecated: call GE1.
type GEOptions struct{}

// GE1With computes GE1.
//
// Deprecated: call GE1.
func GE1With(est Estimator, test *matrix.Dense, _ GEOptions) (float64, error) {
	return GE1(est, test)
}

// GEhConfig controls the h-hole guessing error computation.
type GEhConfig struct {
	// Holes is the number h of simultaneous holes (1 <= h <= M).
	Holes int
	// SetsPerRow bounds |Hh|, the number of hole combinations evaluated per
	// row. When the total number of combinations C(M, h) is at most
	// SetsPerRow, all of them are used; otherwise SetsPerRow random subsets
	// are drawn. Zero selects the default of 20.
	SetsPerRow int
	// Seed makes the random subset choice reproducible. Ignored when all
	// combinations fit.
	Seed int64
}

// defaultSetsPerRow bounds the per-row hole-combination sample so GEh stays
// tractable for wide matrices (C(17,3) alone is 680).
const defaultSetsPerRow = 20

// GEh computes the h-hole guessing error of Def. 2 (Eq. 4): hide h cells of
// a test row at a time, reconstruct them together, and take the
// root-mean-square over all hidden cells of all evaluated hole sets of all
// rows.
func GEh(est Estimator, test *matrix.Dense, cfg GEhConfig) (float64, error) {
	n, m := test.Dims()
	if m != est.Width() {
		return 0, fmt.Errorf("core: GEh on %d-wide matrix with %d-wide estimator: %w",
			m, est.Width(), ErrWidth)
	}
	h := cfg.Holes
	if h < 1 || h > m {
		return 0, fmt.Errorf("core: GEh with h=%d outside [1,%d]: %w", h, m, ErrBadHole)
	}
	if n == 0 {
		return 0, nil
	}
	setsPerRow := cfg.SetsPerRow
	if setsPerRow <= 0 {
		setsPerRow = defaultSetsPerRow
	}
	// When every combination fits the budget, evaluate all of them for all
	// rows. Otherwise draw a fresh sample per row: per-row sampling keeps
	// every column equally represented across the test set, which is what
	// makes GEh of col-avgs provably flat in h (the paper's observation).
	exhaustive := enumerateHoleSets(m, h, setsPerRow)
	rng := rand.New(rand.NewSource(cfg.Seed))

	var (
		sum   float64
		cells int
	)
	for i := 0; i < n; i++ {
		row := test.RawRow(i)
		holeSets := exhaustive
		if holeSets == nil {
			holeSets = sampleHoleSets(rng, m, h, setsPerRow)
		}
		for _, holes := range holeSets {
			filled, err := est.FillRow(row, holes)
			if err != nil {
				return 0, fmt.Errorf("core: GEh at row %d holes %v: %w", i, holes, err)
			}
			for _, j := range holes {
				d := filled[j] - row[j]
				sum += d * d
				cells++
			}
		}
	}
	if cells == 0 {
		return 0, nil
	}
	ge := math.Sqrt(sum / float64(cells))
	recordGE("geh", h, ge)
	return ge, nil
}

// enumerateHoleSets returns every C(m,h) combination when that count fits
// the budget, or nil when sampling is needed instead.
func enumerateHoleSets(m, h, budget int) [][]int {
	total, ok := binomialAtMost(m, h, budget)
	if !ok {
		return nil
	}
	sets := make([][]int, 0, total)
	comb := make([]int, h)
	for i := range comb {
		comb[i] = i
	}
	for {
		sets = append(sets, append([]int(nil), comb...))
		// Advance to the next combination in lexicographic order.
		i := h - 1
		for i >= 0 && comb[i] == m-h+i {
			i--
		}
		if i < 0 {
			break
		}
		comb[i]++
		for j := i + 1; j < h; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
	return sets
}

// sampleHoleSets draws `budget` distinct random h-subsets of [0, m).
func sampleHoleSets(rng *rand.Rand, m, h, budget int) [][]int {
	seen := make(map[string]bool, budget)
	sets := make([][]int, 0, budget)
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	for len(sets) < budget {
		rng.Shuffle(m, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		holes := SortedHoles(idx[:h])
		key := fmt.Sprint(holes)
		if seen[key] {
			continue
		}
		seen[key] = true
		sets = append(sets, holes)
	}
	return sets
}

// binomialAtMost reports whether C(m, h) <= budget, returning the exact
// count when it is (avoiding overflow by early exit).
func binomialAtMost(m, h, budget int) (int, bool) {
	if h > m {
		return 0, true
	}
	if h > m-h {
		h = m - h
	}
	c := 1
	for i := 0; i < h; i++ {
		c = c * (m - i) / (i + 1)
		if c > budget {
			return 0, false
		}
	}
	return c, c <= budget
}

// GECurve evaluates GEh for every h in [1, maxHoles], the series plotted in
// the paper's Fig. 6.
func GECurve(est Estimator, test *matrix.Dense, maxHoles int, cfg GEhConfig) ([]float64, error) {
	out := make([]float64, maxHoles)
	for h := 1; h <= maxHoles; h++ {
		c := cfg
		c.Holes = h
		ge, err := GEh(est, test, c)
		if err != nil {
			return nil, err
		}
		out[h-1] = ge
	}
	return out, nil
}
