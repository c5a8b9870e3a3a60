package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/quest"
)

// Every input is derived from the workload seed; the program under test
// only ever sees the generated rows and requests.

// questMatrix materializes rows Quest customer rows (M=100, the Fig. 8
// shape) for the given seed.
func questMatrix(seed int64, rows int) (*matrix.Dense, error) {
	src, err := questSource(seed, rows)
	if err != nil {
		return nil, err
	}
	x := matrix.NewDense(rows, src.Width())
	for i := 0; i < rows; i++ {
		row, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("quest row %d: %w", i, err)
		}
		copy(x.RawRow(i), row)
	}
	return x, nil
}

func questSource(seed int64, rows int) (*quest.Source, error) {
	cfg := quest.DefaultConfig(rows)
	var err error
	if cfg.Seed, err = questSeed(seed); err != nil {
		return nil, err
	}
	return quest.NewSource(cfg)
}

const (
	// questK is the rule count every workload seed's Quest data yields
	// under the default 85% energy cutoff (the default seed's k).
	questK       = 14
	questProbeN  = 20000
	questMaxTry  = 1000
	questSeedMul = 1000
)

// questSeeds memoizes questSeed, so the search runs once per process and
// set-up time does not depend on how long it took.
var questSeeds sync.Map // int64 -> int64

// questSeed derives the Quest Config.Seed for a workload seed: the first
// of seed*1000, seed*1000+1, ... whose first 20,000 rows mine to questK
// rules. Fill, batch-fill and GE-gate costs grow with k, so pinning it
// keeps a workload's cost the same across seeds while the data varies.
func questSeed(seed int64) (int64, error) {
	if v, ok := questSeeds.Load(seed); ok {
		return v.(int64), nil
	}
	qs, err := searchQuestSeed(seed)
	if err == nil {
		questSeeds.Store(seed, qs)
	}
	return qs, err
}

func searchQuestSeed(seed int64) (int64, error) {
	miner, err := core.NewMiner()
	if err != nil {
		return 0, err
	}
	for i := int64(0); i < questMaxTry; i++ {
		cfg := quest.DefaultConfig(questProbeN)
		cfg.Seed = seed*questSeedMul + i
		src, err := quest.NewSource(cfg)
		if err != nil {
			return 0, err
		}
		r, err := miner.Mine(src)
		if err != nil {
			return 0, err
		}
		if r.K() == questK {
			return cfg.Seed, nil
		}
	}
	return 0, fmt.Errorf("no Quest seed near %d yields k=%d", seed*questSeedMul, questK)
}

// matrixRows views x's rows as slices (no copy).
func matrixRows(x *matrix.Dense) [][]float64 {
	out := make([][]float64, x.Rows())
	for i := range out {
		out[i] = x.RawRow(i)
	}
	return out
}

// ratioRows draws n rows of width from a seeded rank-3 ratio profile:
// row = Σ_r s_r·p_r, each cell perturbed by 5% multiplicative noise.
func ratioRows(seed int64, n, width int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	const rank = 3
	profiles := make([][]float64, rank)
	for r := range profiles {
		profiles[r] = make([]float64, width)
		for j := range profiles[r] {
			profiles[r][j] = 1 + 4*rng.Float64()
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, width)
		for r := range profiles {
			s := 1 + 9*rng.Float64()
			for j := range row {
				row[j] += s * profiles[r][j]
			}
		}
		for j := range row {
			row[j] *= 1 + 0.05*rng.NormFloat64()
		}
		rows[i] = row
	}
	return rows
}

// fillReq is one single-fill or batch-fill record.
type fillReq struct {
	record []float64
	holes  []int
}

// fillRequests builds n fill records over rows, each with a 3-hole
// pattern drawn Zipf-skewed from `patterns` distinct patterns.
func fillRequests(seed int64, rows [][]float64, n, patterns int) []fillReq {
	rng := rand.New(rand.NewSource(seed))
	m := len(rows[0])
	seen := make(map[[3]int]bool)
	var pats [][]int
	for len(pats) < patterns {
		p := rng.Perm(m)[:3]
		sort.Ints(p)
		key := [3]int{p[0], p[1], p[2]}
		if seen[key] {
			continue
		}
		seen[key] = true
		pats = append(pats, p)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(patterns-1))
	out := make([]fillReq, n)
	for i := range out {
		holes := pats[zipf.Uint64()]
		rec := append([]float64(nil), rows[rng.Intn(len(rows))]...)
		for _, h := range holes {
			rec[h] = 0 // JSON has no NaN; the holes list marks the cells
		}
		out[i] = fillReq{record: rec, holes: holes}
	}
	return out
}

// appendRow appends row as a JSON array with round-trip precision.
func appendRow(b []byte, row []float64) []byte {
	b = append(b, '[')
	for j, v := range row {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// appendFill appends a fill body {"record":[...],"holes":[...]}.
func appendFill(b []byte, f fillReq) []byte {
	b = append(b, `{"record":`...)
	b = appendRow(b, f.record)
	b = append(b, `,"holes":[`...)
	for i, h := range f.holes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(h), 10)
	}
	return append(b, "]}"...)
}

// ndjson encodes rows as one bare JSON array per line.
func ndjson(rows [][]float64) []byte {
	var b []byte
	for _, row := range rows {
		b = appendRow(b, row)
		b = append(b, '\n')
	}
	return b
}
