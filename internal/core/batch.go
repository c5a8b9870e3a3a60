package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"ratiorules/internal/obs/trace"
)

// The batch inference engine runs the Sec. 4.4 solves of many rows on a
// bounded worker pool. Results are delivered in input order with bounded
// buffering, which is what lets the HTTP layer stream NDJSON without
// holding a batch in memory.

// ErrNoResiduals is returned by per-row outlier scoring on rule sets
// that predate the residual-deviation bands (legacy serialized models).
var ErrNoResiduals = fmt.Errorf("core: rules carry no residual deviations")

// DefaultBatchWorkers is the worker-pool width used when BatchOptions
// leaves Workers unset: one worker per available CPU.
func DefaultBatchWorkers() int { return runtime.GOMAXPROCS(0) }

// BatchOptions tunes a batch inference run.
type BatchOptions struct {
	// Workers bounds the concurrent solves; <= 0 selects
	// DefaultBatchWorkers().
	Workers int
	// Sigma is the outlier threshold in residual standard deviations;
	// <= 0 selects DefaultOutlierSigma.
	Sigma float64
}

// workers resolves the effective pool width.
func (o BatchOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return DefaultBatchWorkers()
}

// FillJob is one record of a batch fill.
type FillJob struct {
	// Record holds the row values; cells listed in Holes (or marked with
	// the Hole NaN sentinel when Holes is nil) are reconstructed.
	Record []float64
	// Holes lists the unknown cells. nil derives the holes from Hole
	// markers in Record; an explicit empty slice means "no holes".
	Holes []int
	// Err, when non-nil, marks a row that already failed upstream (e.g.
	// a malformed NDJSON line). The engine propagates it to the result
	// unchanged, keeping the row's slot in the output order.
	Err error
}

// FillResult is the outcome for one batch-fill row.
type FillResult struct {
	// Index is the zero-based position of the row in the input stream.
	Index int
	// Filled is the completed record; nil when Err is set.
	Filled []float64
	// Err is the row-level failure; other rows are unaffected.
	Err error
}

// ForecastJob is one forecasting query of a batch.
type ForecastJob struct {
	// Given maps attribute index to its known value.
	Given map[int]float64
	// Target is the attribute to predict.
	Target int
	// Err marks an upstream-failed row, propagated like FillJob.Err.
	Err error
}

// ForecastResult is the outcome for one batch-forecast row.
type ForecastResult struct {
	Index int
	Value float64
	Err   error
}

// OutlierJob is one record of a batch outlier scan.
type OutlierJob struct {
	Record []float64
	// Err marks an upstream-failed row, propagated like FillJob.Err.
	Err error
}

// OutlierResult is the outcome for one batch-outliers row: the cells of
// that record whose deviation from the reconstruction exceeds the
// threshold, sorted by descending score. Cell Row fields carry the batch
// row index.
type OutlierResult struct {
	Index    int
	Outliers []CellOutlier
	Err      error
}

// BatchFill reconstructs a stream of records on a bounded worker pool,
// one "fill.solve" span per row. Results arrive on the
// returned channel in input order; in-flight buffering is bounded by the
// pool width, so arbitrarily long streams run in constant memory. The
// channel closes after the last result (or once ctx is cancelled);
// callers must drain it.
func (r *Rules) BatchFill(ctx context.Context, jobs <-chan FillJob, opts BatchOptions) <-chan FillResult {
	return runOrdered(ctx, opts.workers(), jobs, func(ctx context.Context, i int, j FillJob, wait time.Duration) FillResult {
		if j.Err != nil {
			return FillResult{Index: i, Err: j.Err}
		}
		rctx, sp := startRowSpan(ctx, "fill", i, wait)
		holes := j.Holes
		if holes == nil {
			for idx, v := range j.Record {
				if IsHole(v) {
					holes = append(holes, idx)
				}
			}
		}
		_, ssp := trace.Start(rctx, "fill.solve")
		filled, err := r.fill(j.Record, holes)
		ssp.End()
		sp.End()
		fillOps.count(err)
		return FillResult{Index: i, Filled: filled, Err: err}
	})
}

// startRowSpan opens the per-row "batch.row" child span, annotated with
// the operation, the row's input index, and how long the job sat in the
// pool queue before a worker picked it up — the span that splits "the
// pool was saturated" from "the solve was slow" in a trace.
func startRowSpan(ctx context.Context, op string, index int, wait time.Duration) (context.Context, *trace.Span) {
	rctx, sp := trace.Start(ctx, "batch.row")
	sp.SetAttr("op", op)
	sp.SetAttr("index", index)
	sp.SetAttr("queue_wait_us", wait.Microseconds())
	return rctx, sp
}

// BatchForecast answers a stream of forecasting queries on a bounded
// worker pool. Delivery contract as in BatchFill.
func (r *Rules) BatchForecast(ctx context.Context, jobs <-chan ForecastJob, opts BatchOptions) <-chan ForecastResult {
	return runOrdered(ctx, opts.workers(), jobs, func(ctx context.Context, i int, j ForecastJob, wait time.Duration) ForecastResult {
		if j.Err != nil {
			return ForecastResult{Index: i, Err: j.Err}
		}
		_, sp := startRowSpan(ctx, "forecast", i, wait)
		v, err := r.forecast(j.Given, j.Target)
		sp.End()
		forecastOps.count(err)
		return ForecastResult{Index: i, Value: v, Err: err}
	})
}

// BatchOutliers scores a stream of records for cell outliers on a
// bounded worker pool. Unlike CellOutliers — which needs two passes over
// a full matrix to estimate residual scales from the batch itself —
// the streaming form scores each cell against the model's training
// residual deviation (ResidualStd), so one row can be judged in
// isolation. A row's M cell probes cost one projection. Delivery
// contract as in BatchFill.
func (r *Rules) BatchOutliers(ctx context.Context, jobs <-chan OutlierJob, opts BatchOptions) <-chan OutlierResult {
	sigma := opts.Sigma
	if sigma <= 0 {
		sigma = DefaultOutlierSigma
	}
	loo, lerr := r.newLOO()
	return runOrdered(ctx, opts.workers(), jobs, func(ctx context.Context, i int, j OutlierJob, wait time.Duration) OutlierResult {
		if j.Err != nil {
			return OutlierResult{Index: i, Err: j.Err}
		}
		_, sp := startRowSpan(ctx, "outliers", i, wait)
		cells, err := r.rowCellOutliers(loo, lerr, j.Record, sigma, i)
		sp.End()
		outlierOps.count(err)
		return OutlierResult{Index: i, Outliers: cells, Err: err}
	})
}

// RowCellOutliers hides each cell of row in turn, reconstructs it from
// the rest, and reports cells deviating by more than sigma training
// residual standard deviations (sigma <= 0 selects
// DefaultOutlierSigma). It requires a model mined with residual bands;
// legacy rule sets return ErrNoResiduals. Reported Row fields are 0.
func (r *Rules) RowCellOutliers(row []float64, sigma float64) ([]CellOutlier, error) {
	if sigma <= 0 {
		sigma = DefaultOutlierSigma
	}
	loo, lerr := r.newLOO()
	out, err := r.rowCellOutliers(loo, lerr, row, sigma, 0)
	outlierOps.count(err)
	return out, err
}

// rowCellOutliers scores one row with a single-hole solver; lerr is the
// error newLOO returned for it, reported after the request checks.
func (r *Rules) rowCellOutliers(loo *looSolver, lerr error, row []float64, sigma float64, rowIdx int) ([]CellOutlier, error) {
	m := r.M()
	if len(row) != m {
		return nil, fmt.Errorf("core: record width %d, want %d: %w", len(row), m, ErrWidth)
	}
	if r.residStd == nil {
		return nil, fmt.Errorf("core: per-row outlier scoring needs residual bands: %w", ErrNoResiduals)
	}
	if lerr != nil {
		return nil, lerr
	}
	var out []CellOutlier
	for j, d := range loo.errs(row, loo.scratch()) {
		std := r.residStd[j]
		if std == 0 {
			continue
		}
		if score := math.Abs(d) / std; score >= sigma {
			out = append(out, CellOutlier{
				Row:       rowIdx,
				Col:       j,
				Actual:    row[j],
				Predicted: row[j] - d,
				Score:     score,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out, nil
}

// BatchFillSlice is BatchFill over in-memory slices: rows[i] is filled
// with hole set holes[i] (a nil holes slice, or a nil entry, derives
// holes from NaN markers). Results are indexed like rows.
func (r *Rules) BatchFillSlice(rows [][]float64, holes [][]int, opts BatchOptions) []FillResult {
	jobs := make(chan FillJob)
	go func() {
		defer close(jobs)
		for i, row := range rows {
			var h []int
			if i < len(holes) {
				h = holes[i]
			}
			jobs <- FillJob{Record: row, Holes: h}
		}
	}()
	return collect(r.BatchFill(context.Background(), jobs, opts), len(rows))
}

// BatchForecastSlice is BatchForecast over an in-memory query slice.
func (r *Rules) BatchForecastSlice(queries []ForecastJob, opts BatchOptions) []ForecastResult {
	jobs := make(chan ForecastJob)
	go func() {
		defer close(jobs)
		for _, q := range queries {
			jobs <- q
		}
	}()
	return collect(r.BatchForecast(context.Background(), jobs, opts), len(queries))
}

// BatchOutliersSlice is BatchOutliers over in-memory rows.
func (r *Rules) BatchOutliersSlice(rows [][]float64, opts BatchOptions) []OutlierResult {
	jobs := make(chan OutlierJob)
	go func() {
		defer close(jobs)
		for _, row := range rows {
			jobs <- OutlierJob{Record: row}
		}
	}()
	return collect(r.BatchOutliers(context.Background(), jobs, opts), len(rows))
}

// collect drains a result channel into a slice.
func collect[R any](ch <-chan R, capHint int) []R {
	out := make([]R, 0, capHint)
	for res := range ch {
		out = append(out, res)
	}
	return out
}

// runOrdered fans jobs out to a bounded worker pool and returns results
// in input order. The reorder buffer holds at most 2×workers pending
// results, so a slow consumer back-pressures the feeder instead of
// growing memory. On ctx cancellation the pipeline shuts down promptly;
// the output channel always closes.
//
// Workers invoke fn with the pipeline ctx — which carries the caller's
// trace span, so per-row child spans parent correctly across the
// goroutine hop — and with the time the job spent queued between
// dispatch and pickup.
func runOrdered[J, R any](ctx context.Context, workers int, jobs <-chan J, fn func(ctx context.Context, index int, j J, wait time.Duration) R) <-chan R {
	if workers < 1 {
		workers = 1
	}
	type task struct {
		index    int
		job      J
		enqueued time.Time
		res      chan R
	}
	tasks := make(chan task)
	// pending is the ordered reorder queue: each entry is the (1-buffered)
	// result slot of one dispatched job, enqueued in input order.
	pending := make(chan chan R, 2*workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for t := range tasks {
				t.res <- fn(ctx, t.index, t.job, time.Since(t.enqueued))
			}
		}()
	}
	go func() {
		defer close(pending)
		defer close(tasks)
		i := 0
		for {
			select {
			case j, ok := <-jobs:
				if !ok {
					return
				}
				res := make(chan R, 1)
				select {
				case pending <- res:
				case <-ctx.Done():
					return
				}
				select {
				case tasks <- task{index: i, job: j, enqueued: time.Now(), res: res}:
				case <-ctx.Done():
					// The slot was enqueued but its task never dispatched;
					// the emitter bails out on ctx too, so nobody waits on it.
					return
				}
				i++
			case <-ctx.Done():
				return
			}
		}
	}()
	out := make(chan R)
	go func() {
		defer close(out)
		defer wg.Wait()
		for res := range pending {
			select {
			case rv := <-res:
				select {
				case out <- rv:
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
