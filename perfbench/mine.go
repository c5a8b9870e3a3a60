package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/eigen"
	"ratiorules/internal/matrix"
	"ratiorules/internal/stats"
)

// mineFixture: one goroutine calls Miner.MineContext (default options)
// over a Quest matrix generated once at set-up.
type mineFixture struct {
	seed   int64
	x      *matrix.Dense
	miner  *core.Miner
	oracle *eigen.System // Jacobi on the two-pass scatter
	first  *core.Rules   // the warm-up call's rules
	calls  int
	drift  int // calls whose eigenvalues differ from the first call's
}

func setupMine(ctx context.Context, sz sizes, seed int64) (fixture, error) {
	x, err := questMatrix(seed, sz.mineRows)
	if err != nil {
		return nil, err
	}
	scatter, _ := stats.ScatterTwoPass(x)
	oracle, err := eigen.Jacobi(scatter)
	if err != nil {
		return nil, fmt.Errorf("oracle eigensolve: %w", err)
	}
	miner, err := core.NewMiner()
	if err != nil {
		return nil, err
	}
	first, err := miner.MineContext(ctx, core.NewMatrixSource(x))
	if err != nil {
		return nil, fmt.Errorf("warm-up mine: %w", err)
	}
	return &mineFixture{seed: seed, x: x, miner: miner, oracle: oracle, first: first}, nil
}

func (f *mineFixture) run(ctx context.Context, d time.Duration, rec *recorder) (runStats, error) {
	var st runStats
	n := f.x.Rows()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		id := rec.start("core.mine", 0)
		t := time.Now()
		r, err := f.miner.MineContext(ctx, core.NewMatrixSource(f.x))
		el := time.Since(t)
		rec.end(id)
		st.attempted += n
		f.calls++
		if err != nil || !slices.Equal(r.Eigenvalues(), f.first.Eigenvalues()) {
			st.failed += n
			f.drift++
			continue
		}
		st.ops += float64(n)
		st.busy += el
		st.lat = append(st.lat, ms(el))
	}
	return st, nil
}

func (f *mineFixture) inputs() (layerInputs, error) {
	rows := matrixRows(f.x)
	return layerInputs{
		rows:  rows,
		fills: fillRequests(f.seed, rows, replayFills, 512),
		batch: fillRequests(f.seed+1, rows, 1000, 512),
		model: f.first,
	}, nil
}

func (f *mineFixture) check(context.Context) []check {
	return []check{
		checkAgainstOracle(f.first, f.oracle),
		{"mine.repeatable", f.drift == 0, fmt.Sprintf("%d of %d calls matched the warm-up bit for bit", f.calls-f.drift, f.calls)},
	}
}

func (f *mineFixture) close() {}

// checkAgainstOracle compares mined rules with an independent
// eigensystem: the same cutoff k, the retained eigenvalues within 1e-9
// of the largest, and every retained rule within 1e-6 per cell.
func checkAgainstOracle(r *core.Rules, oracle *eigen.System) check {
	const name = "mine.oracle"
	total, k := 0.0, 0
	for _, l := range oracle.Values {
		total += l
	}
	for acc := 0.0; k < len(oracle.Values) && acc < core.DefaultEnergy*total; k++ {
		acc += oracle.Values[k]
	}
	if r.K() != k {
		return check{name, false, fmt.Sprintf("k=%d, oracle k=%d", r.K(), k)}
	}
	worstVal, worstVec := 0.0, 0.0
	for i, l := range r.Eigenvalues() {
		worstVal = math.Max(worstVal, math.Abs(l-oracle.Values[i])/oracle.Values[0])
		rule, want := r.Rule(i), oracle.Vectors.Col(i)
		sign := 1.0
		if dot(rule, want) < 0 {
			sign = -1
		}
		for j := range rule {
			worstVec = math.Max(worstVec, math.Abs(rule[j]-sign*want[j]))
		}
	}
	ok := worstVal <= 1e-9 && worstVec <= 1e-6
	return check{name, ok, fmt.Sprintf("k=%d, max eigenvalue error %.1e (rel), max rule error %.1e", k, worstVal, worstVec)}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
