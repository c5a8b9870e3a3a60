package server

// Streaming batch inference endpoints. Each POST
// /v1/rules/{name}/batch/{fill,forecast,outliers} accepts either a
// JSON array of row objects or NDJSON (one row object per line,
// Content-Type application/x-ndjson) and answers NDJSON: one result
// line per input row, in input order. Lines go out in bursts: the
// emitter writes what it has buffered whenever no further result is
// ready (and every flushBytes), so a client pacing its rows on the
// answers still sees each one. A row that fails — malformed JSON, bad
// hole indices, wrong width — yields an {"index": i, "error": {...}}
// line in its slot and the batch keeps going; the HTTP status stays 200
// because it is committed before the first row is solved. Rows are
// framed and decoded by the row codec (rowcodec.go) and flow through
// core's bounded worker pool (WithBatchWorkers), so memory is bounded
// by the pool width, not the batch size.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/obs"
)

// ndjsonContentType is the media type of batch responses (and of batch
// requests that opt into line framing).
const ndjsonContentType = "application/x-ndjson"

// maxBatchLineBytes caps one NDJSON input line. The batch body as a
// whole is uncapped (it streams), but a single row has no business
// being this large.
const maxBatchLineBytes = 4 << 20

// batchDeadlineSlack is how far the connection deadlines are pushed
// ahead of a progressing batch (see serveBatch).
const batchDeadlineSlack = 5 * time.Minute

// errBadRow marks batch rows that failed framing or decoding; errStatus
// maps it to bad_request so the per-row error line carries that code.
var errBadRow = errors.New("malformed batch row")

// batchMetrics is the per-batch accounting registered by Handler.
type batchMetrics struct {
	rows *obs.CounterVec   // op, result
	size *obs.HistogramVec // op
}

func newBatchMetrics(reg *obs.Registry) *batchMetrics {
	return &batchMetrics{
		rows: reg.CounterVec("rr_batch_rows_total",
			"Batch inference rows by operation and per-row result.",
			"op", "result"),
		size: reg.HistogramVec("rr_batch_size_rows",
			"Rows per batch request by operation.",
			[]float64{1, 10, 100, 1_000, 10_000, 100_000}, "op"),
	}
}

// rowSource yields the raw rows of a request body. Sources are not
// safe for concurrent use.
type rowSource interface {
	// next returns the next raw row, valid until the following call.
	// more=false ends the stream; a non-nil rowErr is a row-shaped
	// failure (the slot is preserved as an error line).
	next() (raw []byte, rowErr error, more bool)
	// buffered reports whether next can return without reading the
	// body.
	buffered() bool
}

// batchSource picks the body framing: NDJSON when the Content-Type
// says so, JSON array otherwise.
func batchSource(req *http.Request) rowSource {
	if mt, _, err := mime.ParseMediaType(req.Header.Get("Content-Type")); err == nil &&
		strings.Contains(mt, "ndjson") {
		return ndjsonRows(req.Body)
	}
	return &arrayRows{dec: json.NewDecoder(req.Body)}
}

// arrayRows frames the body as a single JSON array, decoded one
// element at a time so the whole batch never sits in memory. Malformed
// framing ends the stream with a final error row.
type arrayRows struct {
	dec           *json.Decoder
	started, done bool
}

func (a *arrayRows) next() ([]byte, error, bool) {
	if a.done {
		return nil, nil, false
	}
	if !a.started {
		tok, err := a.dec.Token()
		if err != nil {
			a.done = true
			return nil, fmt.Errorf("%w: reading array: %v", errBadRow, err), true
		}
		if d, ok := tok.(json.Delim); !ok || d != '[' {
			a.done = true
			return nil, fmt.Errorf("%w: batch body must be a JSON array or NDJSON", errBadRow), true
		}
		a.started = true
	}
	if !a.dec.More() {
		a.done = true
		return nil, nil, false
	}
	var raw json.RawMessage
	if err := a.dec.Decode(&raw); err != nil {
		a.done = true
		return nil, fmt.Errorf("%w: decoding array element: %v", errBadRow, err), true
	}
	return raw, nil, true
}

// buffered answers false while the array is open: telling whether the
// decoder's buffer holds a whole element would mean scanning it twice.
func (a *arrayRows) buffered() bool { return a.done }

// lineError is the NDJSON result line for a failed row.
type lineError struct {
	Index int       `json:"index"`
	Error errorInfo `json:"error"`
}

// serveBatch wires one batch request end to end: a feeder goroutine
// decodes body rows into jobs, run drives them through core's ordered
// worker pool, and the loop below streams one NDJSON line per result.
// emit writes a result's success line and reports whether it did; when
// it did not, rowErr is the row's own error, or nil for a result that
// cannot be encoded. The request context cancels the pipeline if the
// client goes away.
func serveBatch[J, R any](
	s *service, w http.ResponseWriter, req *http.Request, op string,
	opts core.BatchOptions,
	parse func(raw []byte, rowErr error) J,
	run func(ctx context.Context, jobs <-chan J, opts core.BatchOptions) <-chan R,
	emit func(lw *lineWriter, r R) (index int, ok bool, rowErr error),
) {
	rc := http.NewResponseController(w)
	// Without full duplex the HTTP/1 server drains the whole request
	// body before the first response write, which would defeat
	// streaming (and deadlock a client that waits for early results
	// before sending more rows). Unsupported writers just stay
	// half-duplex.
	_ = rc.EnableFullDuplex()
	// The server's global read/write timeouts cover the whole request,
	// which would sever any batch longer than them. Roll a generous
	// deadline forward as long as the batch makes progress; a fully
	// stalled connection still dies within the slack.
	extend := func() {
		t := time.Now().Add(batchDeadlineSlack)
		_ = rc.SetReadDeadline(t)
		_ = rc.SetWriteDeadline(t)
	}
	extend()
	src := batchSource(req)
	ctx := req.Context()
	gate := s.admission.RowGate(tenantFrom(req), true)
	defer gate.Close()
	// The feeder sets shed when the tenant's batch-row bucket runs dry:
	// the offending row becomes its own error line (rate_limited, in
	// slot), the feeder stops — terminating the stream after in-flight
	// rows drain — and the loop below stops rolling the generous
	// deadline forward so a limited client cannot hold the connection.
	var shed atomic.Bool
	jobs := make(chan J)
	go func() {
		defer close(jobs)
		for {
			raw, rowErr, more := src.next()
			if !more {
				return
			}
			if rowErr == nil {
				if gateErr := gate.Take(ctx); gateErr != nil {
					shed.Store(true)
					select {
					case jobs <- parse(nil, gateErr):
					case <-ctx.Done():
					}
					return
				}
			}
			select {
			case jobs <- parse(raw, rowErr):
			case <-ctx.Done():
				return
			}
		}
	}()
	results := run(ctx, jobs, opts)
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	lw := newLineWriter(w, rc)
	defer lw.close()
	rows := 0
	for {
		var res R
		var more bool
		select {
		case res, more = <-results:
		default:
			// No result is ready: send what is buffered before waiting,
			// so a client pacing its rows on our answers sees them.
			if !lw.flush() {
				return
			}
			res, more = <-results
		}
		if !more {
			break
		}
		if rows%256 == 0 && !shed.Load() {
			extend()
		}
		idx, ok, rowErr := emit(lw, res)
		rows++
		if ok {
			s.batch.rows.With(op, "ok").Inc()
			continue
		}
		if rowErr == nil {
			// An unencodable value (e.g. a NaN that leaked into a result)
			// downgrades to a row error rather than corrupting the
			// stream: emit writes nothing on encode failure.
			rowErr = fmt.Errorf("encoding result for row %d failed", idx)
		}
		s.batch.rows.With(op, "error").Inc()
		if !lw.emitErr(idx, rowErr) {
			return
		}
	}
	if shed.Load() {
		t := time.Now().Add(shedDrainSlack)
		_ = rc.SetReadDeadline(t)
		_ = rc.SetWriteDeadline(t)
	}
	s.batch.size.With(op).Observe(float64(rows))
}

// batchFillRow is one input row of POST batch/fill.
type batchFillRow struct {
	Record []float64 `json:"record"`
	Holes  []int     `json:"holes"`
}

func (s *service) batchFill(w http.ResponseWriter, req *http.Request) {
	rules, ok := s.lookup(w, req)
	if !ok {
		return
	}
	var dec rowDecoder
	serveBatch(s, w, req, "fill", core.BatchOptions{Workers: s.batchWorkers},
		func(raw []byte, rowErr error) core.FillJob {
			if rowErr != nil {
				return core.FillJob{Err: rowErr}
			}
			// Each job gets slices of its own: it crosses into the pool.
			if rec, holes, ok := dec.object(raw, "record", true); ok {
				return core.FillJob{Record: slices.Clone(rec), Holes: slices.Clone(holes)}
			}
			var row batchFillRow
			if err := json.Unmarshal(raw, &row); err != nil {
				return core.FillJob{Err: fmt.Errorf("%w: %v", errBadRow, err)}
			}
			return core.FillJob{Record: row.Record, Holes: row.Holes}
		},
		rules.BatchFill,
		func(lw *lineWriter, r core.FillResult) (int, bool, error) {
			if r.Err != nil {
				return r.Index, false, r.Err
			}
			return r.Index, lw.emitFilled(r.Index, r.Filled), nil
		})
}

// batchForecastRow is one input row of POST batch/forecast.
type batchForecastRow struct {
	Given  map[int]float64 `json:"given"`
	Target int             `json:"target"`
}

// batchForecastLine is one success line of the batch/forecast response.
type batchForecastLine struct {
	Index int     `json:"index"`
	Value float64 `json:"value"`
}

func (s *service) batchForecast(w http.ResponseWriter, req *http.Request) {
	rules, ok := s.lookup(w, req)
	if !ok {
		return
	}
	serveBatch(s, w, req, "forecast", core.BatchOptions{Workers: s.batchWorkers},
		func(raw []byte, rowErr error) core.ForecastJob {
			if rowErr != nil {
				return core.ForecastJob{Err: rowErr}
			}
			var row batchForecastRow
			if err := json.Unmarshal(raw, &row); err != nil {
				return core.ForecastJob{Err: fmt.Errorf("%w: %v", errBadRow, err)}
			}
			return core.ForecastJob{Given: row.Given, Target: row.Target}
		},
		rules.BatchForecast,
		func(lw *lineWriter, r core.ForecastResult) (int, bool, error) {
			if r.Err != nil {
				return r.Index, false, r.Err
			}
			return r.Index, lw.emit(batchForecastLine{Index: r.Index, Value: r.Value}), nil
		})
}

// batchOutlierRow is one input row of POST batch/outliers. The sigma
// threshold is per-batch, via the ?sigma= query parameter.
type batchOutlierRow struct {
	Record []float64 `json:"record"`
}

// batchOutliersLine is one success line of the batch/outliers response.
type batchOutliersLine struct {
	Index    int                `json:"index"`
	Outliers []core.CellOutlier `json:"outliers"`
}

func (s *service) batchOutliers(w http.ResponseWriter, req *http.Request) {
	rules, ok := s.lookup(w, req)
	if !ok {
		return
	}
	opts := core.BatchOptions{Workers: s.batchWorkers}
	if raw := req.URL.Query().Get("sigma"); raw != "" {
		sigma, err := strconv.ParseFloat(raw, 64)
		if err != nil || sigma <= 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("invalid sigma %q: want a positive number", raw))
			return
		}
		opts.Sigma = sigma
	}
	var dec rowDecoder
	serveBatch(s, w, req, "outliers", opts,
		func(raw []byte, rowErr error) core.OutlierJob {
			if rowErr != nil {
				return core.OutlierJob{Err: rowErr}
			}
			if rec, _, ok := dec.object(raw, "record", false); ok {
				return core.OutlierJob{Record: slices.Clone(rec)}
			}
			var row batchOutlierRow
			if err := json.Unmarshal(raw, &row); err != nil {
				return core.OutlierJob{Err: fmt.Errorf("%w: %v", errBadRow, err)}
			}
			return core.OutlierJob{Record: row.Record}
		},
		rules.BatchOutliers,
		func(lw *lineWriter, r core.OutlierResult) (int, bool, error) {
			if r.Err != nil {
				return r.Index, false, r.Err
			}
			cells := r.Outliers
			if cells == nil {
				cells = []core.CellOutlier{}
			}
			return r.Index, lw.emit(batchOutliersLine{Index: r.Index, Outliers: cells}), nil
		})
}
