package server

// Streaming batch inference endpoints. Each POST
// /v1/rules/{name}/batch/{fill,forecast,outliers} accepts either a
// JSON array of row objects or NDJSON (one row object per line,
// Content-Type application/x-ndjson) and answers NDJSON: one result
// line per input row, in input order, flushed as it is produced. A row
// that fails — malformed JSON, bad hole indices, wrong width — yields
// an {"index": i, "error": {...}} line in its slot and the batch keeps
// going; the HTTP status stays 200 because it is committed before the
// first row is solved. Rows flow through core's bounded worker pool
// (WithBatchWorkers), so memory is bounded by the pool width, not the
// batch size.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
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

// rowSource yields the next raw row of a batch body. more=false ends
// the stream; a non-nil rowErr is a row-shaped failure (the slot is
// preserved as an error line). Sources are not safe for concurrent use.
type rowSource func() (raw json.RawMessage, rowErr error, more bool)

// batchSource picks the body framing: NDJSON when the Content-Type
// says so, JSON array otherwise.
func batchSource(req *http.Request) rowSource {
	if mt, _, err := mime.ParseMediaType(req.Header.Get("Content-Type")); err == nil &&
		strings.Contains(mt, "ndjson") {
		return ndjsonRows(req.Body)
	}
	return arrayRows(req.Body)
}

// ndjsonRows frames the body as one JSON value per line. Blank lines
// are skipped; an unreadable or oversized line ends the stream with a
// final error row (there is no way to resync a broken byte stream).
func ndjsonRows(body interface{ Read([]byte) (int, error) }) rowSource {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), maxBatchLineBytes)
	done := false
	return func() (json.RawMessage, error, bool) {
		if done {
			return nil, nil, false
		}
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			raw := make(json.RawMessage, len(line))
			copy(raw, line)
			return raw, nil, true
		}
		done = true
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%w: reading line: %v", errBadRow, err), true
		}
		return nil, nil, false
	}
}

// arrayRows frames the body as a single JSON array, decoded one
// element at a time so the whole batch never sits in memory. Malformed
// framing ends the stream with a final error row.
func arrayRows(body interface{ Read([]byte) (int, error) }) rowSource {
	dec := json.NewDecoder(body)
	started, done := false, false
	return func() (json.RawMessage, error, bool) {
		if done {
			return nil, nil, false
		}
		if !started {
			tok, err := dec.Token()
			if err != nil {
				done = true
				return nil, fmt.Errorf("%w: reading array: %v", errBadRow, err), true
			}
			if d, ok := tok.(json.Delim); !ok || d != '[' {
				done = true
				return nil, fmt.Errorf("%w: batch body must be a JSON array or NDJSON", errBadRow), true
			}
			started = true
		}
		if !dec.More() {
			done = true
			return nil, nil, false
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			done = true
			return nil, fmt.Errorf("%w: decoding array element: %v", errBadRow, err), true
		}
		return raw, nil, true
	}
}

// lineError is the NDJSON result line for a failed row.
type lineError struct {
	Index int       `json:"index"`
	Error errorInfo `json:"error"`
}

// serveBatch wires one batch request end to end: a feeder goroutine
// decodes body rows into jobs, run drives them through core's ordered
// worker pool, and the loop below streams one NDJSON line per result.
// The request context cancels the pipeline if the client goes away.
func serveBatch[J, R any](
	s *service, w http.ResponseWriter, req *http.Request, op string,
	opts core.BatchOptions,
	parse func(raw json.RawMessage, rowErr error) J,
	run func(ctx context.Context, jobs <-chan J, opts core.BatchOptions) <-chan R,
	line func(R) (index int, v any, rowErr error),
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
			raw, rowErr, more := src()
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
	lw := newLineWriter(w)
	defer lw.release()
	rows := 0
	for res := range results {
		if rows%256 == 0 && !shed.Load() {
			extend()
		}
		idx, v, rowErr := line(res)
		rows++
		if rowErr == nil {
			// An unencodable value (e.g. a NaN that leaked into a result)
			// downgrades to a row error rather than corrupting the stream:
			// emit writes nothing on encode failure.
			if lw.emit(v) {
				s.batch.rows.With(op, "ok").Inc()
				continue
			}
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

// batchFillLine is one success line of the batch/fill response.
type batchFillLine struct {
	Index  int       `json:"index"`
	Filled []float64 `json:"filled"`
}

func (s *service) batchFill(w http.ResponseWriter, req *http.Request) {
	rules, ok := s.lookup(w, req)
	if !ok {
		return
	}
	serveBatch(s, w, req, "fill", core.BatchOptions{Workers: s.batchWorkers},
		func(raw json.RawMessage, rowErr error) core.FillJob {
			if rowErr != nil {
				return core.FillJob{Err: rowErr}
			}
			var row batchFillRow
			if err := json.Unmarshal(raw, &row); err != nil {
				return core.FillJob{Err: fmt.Errorf("%w: %v", errBadRow, err)}
			}
			return core.FillJob{Record: row.Record, Holes: row.Holes}
		},
		rules.BatchFill,
		func(r core.FillResult) (int, any, error) {
			if r.Err != nil {
				return r.Index, nil, r.Err
			}
			return r.Index, batchFillLine{Index: r.Index, Filled: r.Filled}, nil
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
		func(raw json.RawMessage, rowErr error) core.ForecastJob {
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
		func(r core.ForecastResult) (int, any, error) {
			if r.Err != nil {
				return r.Index, nil, r.Err
			}
			return r.Index, batchForecastLine{Index: r.Index, Value: r.Value}, nil
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
	serveBatch(s, w, req, "outliers", opts,
		func(raw json.RawMessage, rowErr error) core.OutlierJob {
			if rowErr != nil {
				return core.OutlierJob{Err: rowErr}
			}
			var row batchOutlierRow
			if err := json.Unmarshal(raw, &row); err != nil {
				return core.OutlierJob{Err: fmt.Errorf("%w: %v", errBadRow, err)}
			}
			return core.OutlierJob{Record: row.Record}
		},
		rules.BatchOutliers,
		func(r core.OutlierResult) (int, any, error) {
			if r.Err != nil {
				return r.Index, nil, r.Err
			}
			cells := r.Outliers
			if cells == nil {
				cells = []core.CellOutlier{}
			}
			return r.Index, batchOutliersLine{Index: r.Index, Outliers: cells}, nil
		})
}
