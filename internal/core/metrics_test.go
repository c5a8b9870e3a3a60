package core

import (
	"testing"

	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
)

// snapshotDelta runs f and returns how much each obs.Default() sample
// moved.
func snapshotDelta(t *testing.T, f func()) map[string]float64 {
	t.Helper()
	before := obs.Default().Snapshot()
	f()
	after := obs.Default().Snapshot()
	delta := make(map[string]float64, len(after))
	for k, v := range after {
		delta[k] = v - before[k]
	}
	return delta
}

func testMatrix(t *testing.T) *matrix.Dense {
	t.Helper()
	x, err := matrix.FromRows([][]float64{
		{1, 2, 3}, {2, 4.1, 6.2}, {3, 5.9, 8.9}, {4, 8.2, 12.1}, {5, 9.8, 15.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// Every Mine* entry point runs the same tail, so each records the same
// phases and throughput for the same 5×3 matrix.
func TestMineRecordsPhasesAndThroughput(t *testing.T) {
	x := testMatrix(t)
	miner, err := NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	weighted := func() *WeightedSliceSource {
		src := &WeightedSliceSource{}
		for i := 0; i < x.Rows(); i++ {
			src.Rows = append(src.Rows, WeightedRow{Row: x.RawRow(i), Weight: 1})
		}
		return src
	}
	for _, tc := range []struct {
		name string
		mine func() (*Rules, error)
	}{
		{"MineMatrix", func() (*Rules, error) { return miner.MineMatrix(x) }},
		{"MineSparse", func() (*Rules, error) { return miner.MineSparse(&sliceSparseSource{m: x}) }},
		{"MineWeighted", func() (*Rules, error) { return miner.MineWeighted(weighted()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			delta := snapshotDelta(t, func() {
				if _, err := tc.mine(); err != nil {
					t.Fatal(err)
				}
			})
			for _, key := range []string{
				`rr_miner_phase_seconds_count{phase="scan"}`,
				`rr_miner_phase_seconds_count{phase="covariance"}`,
				`rr_miner_phase_seconds_count{phase="eigensolve"}`,
				`rr_miner_mines_total{result="ok"}`,
			} {
				if delta[key] != 1 {
					t.Errorf("%s moved by %v, want 1", key, delta[key])
				}
			}
			if delta["rr_miner_rows_total"] != 5 || delta["rr_miner_cells_total"] != 15 {
				t.Errorf("rows/cells delta = %v / %v, want 5 / 15",
					delta["rr_miner_rows_total"], delta["rr_miner_cells_total"])
			}
			// Throughput gauges are set, not added; read them directly.
			snap := obs.Default().Snapshot()
			if snap["rr_miner_rows_per_second"] <= 0 || snap["rr_miner_cells_per_second"] <= 0 {
				t.Errorf("throughput gauges not set: rows/s=%v cells/s=%v",
					snap["rr_miner_rows_per_second"], snap["rr_miner_cells_per_second"])
			}
		})
	}
}

func TestMineShardedRecordsShardAndMergeTimings(t *testing.T) {
	x := testMatrix(t)
	miner, err := NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	delta := snapshotDelta(t, func() {
		shards := []RowSource{NewMatrixSource(x), NewMatrixSource(x), NewMatrixSource(x)}
		if _, err := miner.MineSharded(shards); err != nil {
			t.Fatal(err)
		}
	})
	if got := delta["rr_miner_shard_seconds_count"]; got != 3 {
		t.Errorf("shard timings = %v, want 3", got)
	}
	if got := delta[`rr_miner_phase_seconds_count{phase="merge"}`]; got != 1 {
		t.Errorf("merge phase count = %v, want 1", got)
	}
	if got := delta["rr_miner_rows_total"]; got != 15 {
		t.Errorf("rows delta = %v, want 15", got)
	}
}

func TestMineErrorCountsAsFailure(t *testing.T) {
	miner, err := NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	one, err := matrix.FromRows([][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	delta := snapshotDelta(t, func() {
		if _, err := miner.MineMatrix(one); err == nil {
			t.Fatal("mining one row succeeded")
		}
	})
	if got := delta[`rr_miner_mines_total{result="error"}`]; got != 1 {
		t.Errorf("error mines delta = %v, want 1", got)
	}
	if got := delta[`rr_miner_mines_total{result="ok"}`]; got != 0 {
		t.Errorf("ok mines delta = %v, want 0", got)
	}
}

func TestOpCountersAndGEGauge(t *testing.T) {
	x := testMatrix(t)
	miner, err := NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	delta := snapshotDelta(t, func() {
		if _, err := rules.FillRow([]float64{2.5, 0, 0}, []int{1, 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := rules.Forecast(map[int]float64{0: 2.5}, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := rules.WhatIf(Scenario{Given: map[int]float64{0: 2.5}}); err != nil {
			t.Fatal(err)
		}
		if _, err := rules.CellOutliers(x, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := rules.FillRow([]float64{1}, []int{0}); err == nil { // wrong width
			t.Fatal("bad fill succeeded")
		}
	})
	for key, want := range map[string]float64{
		`rr_ops_total{op="fill",result="ok"}`:        1,
		`rr_ops_total{op="fill",result="error"}`:     1,
		`rr_ops_total{op="forecast",result="ok"}`:    1,
		`rr_ops_total{op="whatif",result="ok"}`:      1,
		`rr_ops_total{op="outliers",result="ok"}`:    1,
		`rr_ops_total{op="forecast",result="error"}`: 0,
	} {
		if delta[key] != want {
			t.Errorf("%s moved by %v, want %v", key, delta[key], want)
		}
	}

	if _, err := GE1(rules, x); err != nil {
		t.Fatal(err)
	}
	snap := obs.Default().Snapshot()
	if _, ok := snap[`rr_guessing_error{def="ge1",holes="1"}`]; !ok {
		t.Errorf("GE1 gauge missing from snapshot")
	}
	if _, err := GEh(rules, x, GEhConfig{Holes: 2}); err != nil {
		t.Fatal(err)
	}
	snap = obs.Default().Snapshot()
	if _, ok := snap[`rr_guessing_error{def="geh",holes="2"}`]; !ok {
		t.Errorf("GEh gauge missing from snapshot")
	}
}
