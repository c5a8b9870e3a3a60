// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablation benches for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports paper-relevant metrics through b.ReportMetric so
// the bench output doubles as the experimental record (see EXPERIMENTS.md).
package ratiorules_test

import (
	"testing"

	"ratiorules"
	"ratiorules/internal/dataset"
	"ratiorules/internal/experiments"
	"ratiorules/internal/quest"
	"ratiorules/internal/stats"
)

// BenchmarkTable2MineNBA regenerates Table 2: mining the first three Ratio
// Rules of the nba dataset.
func BenchmarkTable2MineNBA(b *testing.B) {
	ds := dataset.NBA()
	miner, err := ratiorules.CoreMiner(ratiorules.FixedK(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rules *ratiorules.Rules
	for i := 0; i < b.N; i++ {
		rules, err = miner.MineMatrix(ds.X)
		if err != nil {
			b.Fatal(err)
		}
	}
	rr1 := rules.Rule(0)
	b.ReportMetric(rr1[0]/rr1[7], "RR1-minutes:points")
}

// BenchmarkFig7GuessingError regenerates Fig. 7: GE1 of Ratio Rules
// relative to col-avgs on each dataset (90/10 split).
func BenchmarkFig7GuessingError(b *testing.B) {
	for _, name := range []string{"nba", "baseball", "abalone"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var res *experiments.Fig7Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = experiments.RunFig7()
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, row := range res.Rows {
				if row.Dataset == name {
					b.ReportMetric(row.RelPercent, "RR-%of-colavgs")
					b.ReportMetric(row.GE1RR, "GE1-RR")
					b.ReportMetric(row.GE1ColAvgs, "GE1-colavgs")
				}
			}
		})
	}
}

// BenchmarkFig6HoleStability regenerates Fig. 6: GEh for h = 1..5.
func BenchmarkFig6HoleStability(b *testing.B) {
	for _, name := range []string{"nba", "baseball"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var res *experiments.Fig6Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = experiments.RunFig6(name)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.RR[0], "GEh1-RR")
			b.ReportMetric(res.RR[4], "GEh5-RR")
			b.ReportMetric(res.ColAvgs[0], "GEh1-colavgs")
			b.ReportMetric(res.ColAvgs[4], "GEh5-colavgs")
		})
	}
}

// BenchmarkFig8ScaleUp regenerates Fig. 8: single-pass mining time as N
// grows (M = 100, Quest-style data). The per-size sub-benchmarks give the
// curve; the reported metric is rows mined per second.
func BenchmarkFig8ScaleUp(b *testing.B) {
	for _, n := range []int{10000, 25000, 50000, 100000} {
		n := n
		b.Run(sizeName(n), func(b *testing.B) {
			miner, err := ratiorules.CoreMiner()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := quest.DefaultConfig(n)
				src, err := quest.NewSource(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := miner.Mine(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return "N=" + itoa(n/1000) + "k"
	default:
		return "N=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig11Projection regenerates the Fig. 11 scatter data: nba
// projected onto its first two rules.
func BenchmarkFig11Projection(b *testing.B) {
	ds := dataset.NBA()
	rules, err := ratiorules.Mine(ds.X, ratiorules.FixedK(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rules.Project(ds.X, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Projection regenerates the Fig. 9 scatter data for baseball
// and abalone.
func BenchmarkFig9Projection(b *testing.B) {
	for _, name := range []string{"baseball", "abalone"} {
		name := name
		b.Run(name, func(b *testing.B) {
			ds, err := experiments.DatasetByName(name)
			if err != nil {
				b.Fatal(err)
			}
			rules, err := ratiorules.Mine(ds.X, ratiorules.FixedK(2))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rules.Project(ds.X, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12Comparison regenerates the Fig. 12 / Sec. 6.3 comparison
// of Ratio Rules against quantitative association rules.
func BenchmarkFig12Comparison(b *testing.B) {
	var res *experiments.Fig12Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunFig12()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ExtrapolationRRPred, "butter-at-8.50")
	b.ReportMetric(float64(res.QuantRuleCount), "quant-rules")
	b.ReportMetric(100*res.CoverageQuant, "quant-coverage-%")
}

// --- Ablation benches (DESIGN.md Sec. 5) ---

// BenchmarkAblationCovariance compares the paper's one-pass covariance
// accumulation against the two-pass centered variant.
func BenchmarkAblationCovariance(b *testing.B) {
	ds := dataset.Abalone()
	b.Run("one-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc := stats.NewCovAccumulator(ds.Cols())
			for r := 0; r < ds.Rows(); r++ {
				if err := acc.Push(ds.X.RawRow(r)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := acc.Scatter(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("two-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.ScatterTwoPass(ds.X)
		}
	})
}

// BenchmarkAblationSparseMining compares dense vs sparse accumulation on
// Quest basket data (each row touches ~15 of 100 products).
func BenchmarkAblationSparseMining(b *testing.B) {
	const rows = 20000
	b.Run("dense", func(b *testing.B) {
		miner, err := ratiorules.CoreMiner(ratiorules.MaxK(5))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			src, err := quest.NewSource(quest.DefaultConfig(rows))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := miner.Mine(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		miner, err := ratiorules.CoreMiner(ratiorules.MaxK(5))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			src, err := quest.NewSparseSource(quest.DefaultConfig(rows))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := miner.MineSparse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMineThroughput measures core mining throughput per dataset.
func BenchmarkMineThroughput(b *testing.B) {
	for _, ds := range experiments.Datasets() {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			miner, err := ratiorules.CoreMiner()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := miner.MineMatrix(ds.X); err != nil {
					b.Fatal(err)
				}
			}
			cells := float64(ds.Rows()*ds.Cols()) * float64(b.N)
			b.ReportMetric(cells/b.Elapsed().Seconds()/1e6, "Mcells/s")
		})
	}
}

// BenchmarkGE1 measures the guessing-error evaluation itself (every cell
// of the test split hidden and reconstructed) per dataset.
func BenchmarkGE1(b *testing.B) {
	for _, ds := range experiments.Datasets() {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			train, test, err := ds.Split(0.9, 1998)
			if err != nil {
				b.Fatal(err)
			}
			rules, err := ratiorules.Mine(train.X)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ratiorules.GE1(rules, test.X); err != nil {
					b.Fatal(err)
				}
			}
			cells := float64(test.Rows()*test.Cols()) * float64(b.N)
			b.ReportMetric(cells/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkGEh measures multi-hole evaluation at h = 3.
func BenchmarkGEh(b *testing.B) {
	ds := dataset.NBA()
	train, test, err := ds.Split(0.9, 1998)
	if err != nil {
		b.Fatal(err)
	}
	rules, err := ratiorules.Mine(train.X)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ratiorules.GEh(rules, test.X, ratiorules.GEhConfig{Holes: 3, SetsPerRow: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFillRow measures single-record reconstruction latency.
func BenchmarkFillRow(b *testing.B) {
	ds := dataset.NBA()
	rules, err := ratiorules.Mine(ds.X, ratiorules.FixedK(3))
	if err != nil {
		b.Fatal(err)
	}
	row := ds.X.Row(7)
	for _, tc := range []struct {
		name  string
		holes []int
	}{
		{"1-hole", []int{7}},
		{"3-holes", []int{1, 7, 10}},
		{"under-specified", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rules.FillRow(row, tc.holes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
