package core

import (
	"strconv"
	"time"

	"ratiorules/internal/obs"
)

// Mining and query metrics, recorded into the process-wide obs
// registry (scraped by rrserve's GET /metrics, snapshot by rrbench
// -json). Phase names follow the paper's Fig. 2 pipeline:
//
//	scan        single-pass row ingest + covariance accumulation
//	covariance  finalizing the scatter matrix from the running sums
//	merge       combining per-shard accumulators (MineSharded only)
//	eigensolve  the eigensystem of the scatter matrix
//
// rr_ops_total counts public query operations (fill, forecast, whatif,
// outliers, project) with result="ok"|"error". GEh, and GE1 with an
// estimator other than *Rules, drive fills through the Estimator
// interface, so those evaluation runs inflate the fill counters by
// design — they really are fill operations. GE1 on *Rules solves in
// closed form and books no fills.
var (
	minerPhaseSeconds = obs.Default().HistogramVec("rr_miner_phase_seconds",
		"Wall-clock seconds per mining phase.", obs.DefBuckets, "phase")
	minerShardSeconds = obs.Default().Histogram("rr_miner_shard_seconds",
		"Per-shard scan seconds in MineSharded.", obs.DefBuckets)
	minerRowsTotal = obs.Default().Counter("rr_miner_rows_total",
		"Rows scanned across all mining runs.")
	minerCellsTotal = obs.Default().Counter("rr_miner_cells_total",
		"Cells (rows x attributes) scanned across all mining runs.")
	minerRowsPerSec = obs.Default().Gauge("rr_miner_rows_per_second",
		"Scan throughput of the most recent mining run.")
	minerCellsPerSec = obs.Default().Gauge("rr_miner_cells_per_second",
		"Cell throughput of the most recent mining run.")
	minerMinesTotal = obs.Default().CounterVec("rr_miner_mines_total",
		"Completed mining runs by result.", "result")
	minerRulesRetained = obs.Default().Gauge("rr_miner_rules_retained",
		"Rules (k) retained by the most recent mining run.")

	opsTotal = obs.Default().CounterVec("rr_ops_total",
		"Rule query operations by type and result.", "op", "result")

	geGauge = obs.Default().GaugeVec("rr_guessing_error",
		"Most recent guessing error by definition and hole count.", "def", "holes")
)

// Phase children and op counters are resolved once so hot paths pay a
// single atomic add, not a map lookup.
var (
	scanPhase       = minerPhaseSeconds.With("scan")
	covariancePhase = minerPhaseSeconds.With("covariance")
	mergePhase      = minerPhaseSeconds.With("merge")
	eigensolvePhase = minerPhaseSeconds.With("eigensolve")

	mineOK  = minerMinesTotal.With("ok")
	mineErr = minerMinesTotal.With("error")

	fillOps     = newOpCounters("fill")
	forecastOps = newOpCounters("forecast")
	whatIfOps   = newOpCounters("whatif")
	outlierOps  = newOpCounters("outliers")
	projectOps  = newOpCounters("project")
)

type opCounters struct {
	ok, err *obs.Counter
}

func newOpCounters(op string) opCounters {
	return opCounters{ok: opsTotal.With(op, "ok"), err: opsTotal.With(op, "error")}
}

// count records one operation outcome.
func (o opCounters) count(err error) {
	if err != nil {
		o.err.Inc()
	} else {
		o.ok.Inc()
	}
}

// recordMine books a completed (or failed) mining run's scan counters
// and throughput gauges.
func recordMine(rows, width int, scanElapsed time.Duration, err error) {
	if err != nil {
		mineErr.Inc()
		return
	}
	mineOK.Inc()
	cells := rows * width
	minerRowsTotal.Add(float64(rows))
	minerCellsTotal.Add(float64(cells))
	minerRowsPerSec.Set(obs.Rate(rows, scanElapsed))
	minerCellsPerSec.Set(obs.Rate(cells, scanElapsed))
}

// recordGE publishes a guessing-error evaluation.
func recordGE(def string, holes int, ge float64) {
	geGauge.With(def, strconv.Itoa(holes)).Set(ge)
}
