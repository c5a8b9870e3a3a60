package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// batchFixture mines a k-rule model over plane data and returns both.
func batchFixture(t *testing.T, seed int64, n, m, k int) (*Rules, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := planeData(rng, n, m, k)
	rules := mineK(t, x, k)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	return rules, rows
}

// TestBatchFillSliceMatchesSequential checks values and ordering against
// the per-row FillRow loop across a few distinct hole patterns.
func TestBatchFillSliceMatchesSequential(t *testing.T) {
	rules, rows := batchFixture(t, 11, 120, 7, 3)
	patterns := [][]int{{0}, {2, 5}, {1, 3, 6}, {4}}
	holes := make([][]int, len(rows))
	for i := range rows {
		holes[i] = patterns[i%len(patterns)]
	}
	results := rules.BatchFillSlice(rows, holes, BatchOptions{Workers: 4})
	if len(results) != len(rows) {
		t.Fatalf("got %d results for %d rows", len(results), len(rows))
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("result %d carries index %d: ordering broken", i, res.Index)
		}
		if res.Err != nil {
			t.Fatalf("row %d: %v", i, res.Err)
		}
		want, err := rules.FillRow(rows[i], holes[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(want[j]-res.Filled[j]) > 1e-9*(1+math.Abs(want[j])) {
				t.Fatalf("row %d cell %d: batch %g, sequential %g", i, j, res.Filled[j], want[j])
			}
		}
	}
}

// TestBatchFillRowErrors checks one bad row cannot fail the batch and
// that upstream Err passthrough keeps its slot.
func TestBatchFillRowErrors(t *testing.T) {
	rules, rows := batchFixture(t, 12, 10, 5, 2)
	upstream := errors.New("malformed line 3")
	jobs := make(chan FillJob)
	go func() {
		defer close(jobs)
		jobs <- FillJob{Record: rows[0], Holes: []int{1}}
		jobs <- FillJob{Record: rows[1], Holes: []int{99}}        // bad hole index
		jobs <- FillJob{Record: []float64{1, 2}, Holes: []int{0}} // wrong width
		jobs <- FillJob{Err: upstream}                            // upstream decode failure
		jobs <- FillJob{Record: rows[2], Holes: []int{0, 3}}
	}()
	var results []FillResult
	for res := range rules.BatchFill(context.Background(), jobs, BatchOptions{Workers: 3}) {
		results = append(results, res)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	if results[0].Err != nil || results[4].Err != nil {
		t.Fatalf("good rows failed: %v, %v", results[0].Err, results[4].Err)
	}
	if !errors.Is(results[1].Err, ErrBadHole) {
		t.Errorf("row 1: got %v, want ErrBadHole", results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrWidth) {
		t.Errorf("row 2: got %v, want ErrWidth", results[2].Err)
	}
	if !errors.Is(results[3].Err, upstream) {
		t.Errorf("row 3: got %v, want upstream error propagated", results[3].Err)
	}
}

// TestBatchFillDerivesHolesFromNaN covers the Holes == nil contract.
func TestBatchFillDerivesHolesFromNaN(t *testing.T) {
	rules, rows := batchFixture(t, 13, 30, 5, 2)
	record := append([]float64(nil), rows[0]...)
	record[2] = Hole
	want, err := rules.FillRecord(append([]float64(nil), record...))
	if err != nil {
		t.Fatal(err)
	}
	results := rules.BatchFillSlice([][]float64{record}, nil, BatchOptions{})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if math.Abs(results[0].Filled[2]-want[2]) > 1e-9*(1+math.Abs(want[2])) {
		t.Fatalf("NaN-derived fill %g, FillRecord %g", results[0].Filled[2], want[2])
	}
}

// TestBatchForecastSliceMatchesForecast compares the batch path with the
// one-shot Forecast on identical queries.
func TestBatchForecastSliceMatchesForecast(t *testing.T) {
	rules, rows := batchFixture(t, 14, 80, 6, 2)
	queries := make([]ForecastJob, 20)
	for i := range queries {
		row := rows[i]
		queries[i] = ForecastJob{
			Given:  map[int]float64{0: row[0], 1: row[1], 2: row[2]},
			Target: 5,
		}
	}
	queries = append(queries, ForecastJob{Given: map[int]float64{0: 1}, Target: 0}) // target given
	results := rules.BatchForecastSlice(queries, BatchOptions{Workers: 4})
	for i := 0; i < 20; i++ {
		want, err := rules.Forecast(queries[i].Given, queries[i].Target)
		if err != nil {
			t.Fatal(err)
		}
		if res := results[i]; res.Err != nil || math.Abs(res.Value-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("query %d: batch (%g, %v), one-shot %g", i, res.Value, res.Err, want)
		}
	}
	if !errors.Is(results[20].Err, ErrBadHole) {
		t.Errorf("given-target query: got %v, want ErrBadHole", results[20].Err)
	}
}

// TestBatchOutliersSlice plants a gross cell corruption and expects the
// streaming scorer to flag it against the training residual bands.
func TestBatchOutliersSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := planeData(rng, 200, 6, 2)
	// Perturb the training data slightly so residual stds are non-zero.
	for i := 0; i < 200; i++ {
		row := x.RawRow(i)
		for j := range row {
			row[j] += 0.05 * rng.NormFloat64()
		}
	}
	rules := mineK(t, x, 2)
	clean := x.Row(0)
	corrupt := x.Row(1)
	corrupt[3] += 500 // gross corruption
	results := rules.BatchOutliersSlice([][]float64{clean, corrupt}, BatchOptions{Workers: 2})
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("unexpected errors: %v, %v", results[0].Err, results[1].Err)
	}
	found := false
	for _, c := range results[1].Outliers {
		if c.Col == 3 && c.Row == 1 {
			found = true
			if c.Actual != corrupt[3] {
				t.Errorf("outlier actual %g, want %g", c.Actual, corrupt[3])
			}
		}
	}
	if !found {
		t.Fatalf("corrupted cell not flagged; outliers: %+v", results[1].Outliers)
	}
}

// TestRowCellOutliersNeedsResiduals covers the legacy-model error.
func TestRowCellOutliersNeedsResiduals(t *testing.T) {
	rules, rows := batchFixture(t, 16, 30, 4, 2)
	legacy := &Rules{
		attrs:         rules.attrs,
		means:         rules.means,
		v:             rules.v,
		eigenvalues:   rules.eigenvalues,
		totalVariance: rules.totalVariance,
		trainedRows:   rules.trainedRows,
		// residStd deliberately nil, as in pre-band serialized models.
	}
	if _, err := legacy.RowCellOutliers(rows[0], 2); !errors.Is(err, ErrNoResiduals) {
		t.Fatalf("got %v, want ErrNoResiduals", err)
	}
}

// TestBatchFillContextCancel checks the pipeline shuts down (and closes
// its output) when the consumer's context dies mid-stream.
func TestBatchFillContextCancel(t *testing.T) {
	rules, rows := batchFixture(t, 17, 10, 5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make(chan FillJob)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Produce until the engine stops accepting; the feeder must not
		// block forever after cancellation.
		for i := 0; ; i++ {
			select {
			case jobs <- FillJob{Record: rows[i%len(rows)], Holes: []int{1}}:
			case <-ctx.Done():
				close(jobs)
				return
			}
		}
	}()
	results := rules.BatchFill(ctx, jobs, BatchOptions{Workers: 2})
	for i := 0; i < 5; i++ {
		if res, ok := <-results; !ok || res.Err != nil {
			t.Fatalf("result %d: ok=%v err=%v", i, ok, res.Err)
		}
	}
	cancel()
	for range results {
		// Drain whatever was in flight; the channel must close.
	}
	<-done
}

// TestFillCachedMatchesFill drives the batch engine over every Sec. 4.4
// case (exact, over- and under-specified, all holes, none) and checks it
// agrees with the one-shot FillRow.
func TestFillCachedMatchesFill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := planeData(rng, 200, 8, 3)
	rules := mineK(t, x, 3)
	patterns := [][]int{
		{0},                      // over-specified
		{6, 2},                   // over-specified, unsorted on purpose
		{0, 1, 2, 3, 4},          // exactly specified (known = k = 3)
		{0, 1, 2, 3, 4, 5},       // under-specified (Case 3)
		{7, 6, 5, 4, 3, 2, 1, 0}, // everything hidden -> column means
		{},                       // no holes
	}
	var rows [][]float64
	var holes [][]int
	for _, h := range patterns {
		for trial := 0; trial < 5; trial++ {
			rows = append(rows, x.Row(rng.Intn(200)))
			holes = append(holes, h)
		}
	}
	for i, res := range rules.BatchFillSlice(rows, holes, BatchOptions{Workers: 3}) {
		if res.Err != nil {
			t.Fatalf("row %d holes %v: %v", i, holes[i], res.Err)
		}
		want, err := rules.FillRow(rows[i], holes[i])
		if err != nil {
			t.Fatalf("FillRow(%v): %v", holes[i], err)
		}
		for j := range want {
			if math.Abs(want[j]-res.Filled[j]) > 1e-9*(1+math.Abs(want[j])) {
				t.Fatalf("holes %v cell %d: batch %g, FillRow %g", holes[i], j, res.Filled[j], want[j])
			}
		}
	}
}

// TestFillCachedValidation checks the batch engine reports FillRow's
// errors per row.
func TestFillCachedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := planeData(rng, 50, 4, 2)
	rules := mineK(t, x, 2)
	rows := [][]float64{{1, 2}, make([]float64, 4), make([]float64, 4)}
	holes := [][]int{{0}, {4}, {1, 1}}
	res := rules.BatchFillSlice(rows, holes, BatchOptions{Workers: 2})
	if !errors.Is(res[0].Err, ErrWidth) {
		t.Errorf("short record: got %v, want ErrWidth", res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrBadHole) {
		t.Errorf("out-of-range hole: got %v, want ErrBadHole", res[1].Err)
	}
	if !errors.Is(res[2].Err, ErrBadHole) {
		t.Errorf("duplicate hole: got %v, want ErrBadHole", res[2].Err)
	}
}
