package server

// Live ingest endpoints over internal/online. POST
// /v1/rules/{name}/ingest follows the batch streaming conventions
// (batch.go): NDJSON or a JSON array in, one NDJSON line out per row,
// full-duplex with rolling deadlines, status 200 committed before the
// first row. Each input line is a row — either a bare array
// ([1.5, 3.0]) or {"row": [...]} — answered by an ack line
// {"index": i, "count": n} or an error line in its slot; the stream
// ends with a {"done": {...}} summary. Unlike batch inference, rows are
// folded into the stream sequentially (order is state here, not just
// output framing). Re-mining and GE-gated promotion run behind the
// scenes per the manager's triggers; GET /v1/rules/{name}/stream shows
// the live accumulator and gate counters, DELETE drops it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ratiorules/internal/online"
)

// ingestDone is the final summary line of POST ingest.
type ingestDone struct {
	Rows     int `json:"rows"`     // input lines seen
	Accepted int `json:"accepted"` // rows folded into the stream
	Errors   int `json:"errors"`   // rows answered with an error line
	Count    int `json:"count"`    // stream row total at end of request
}

// ingestDoneLine frames the summary so clients can tell it from acks.
type ingestDoneLine struct {
	Done ingestDone `json:"done"`
}

// queryDecay parses the optional ?decay=D parameter. ok=false means
// the request was already answered with a 400.
func queryDecay(w http.ResponseWriter, req *http.Request) (decay float64, explicit, ok bool) {
	raw := req.URL.Query().Get("decay")
	if raw == "" {
		return 0, false, true
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || v < 0 || v >= 1 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("invalid decay %q: want a number in [0, 1)", raw))
		return 0, false, false
	}
	return v, true, true
}

// decodeIngestRow parses one input line: a bare JSON array of numbers,
// or an object with a "row" field. The row codec decodes those into
// dec's reused buffer (the stream copies what it keeps); any other line
// goes to encoding/json, which decides its error. An empty row, and a
// row wider than maxRowWidth, fail here, before a new stream is created
// or its accumulator sized from them; both ingest paths share the check.
func decodeIngestRow(dec *rowDecoder, raw []byte) ([]float64, error) {
	row, ok := dec.array(raw)
	if !ok {
		row, _, ok = dec.object(raw, "row", false)
	}
	if !ok {
		var err error
		if row, err = unmarshalIngestRow(raw); err != nil {
			return nil, err
		}
	}
	if len(row) == 0 {
		return nil, fmt.Errorf("%w: empty row", errBadRow)
	}
	if err := widthErr(len(row)); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRow, err)
	}
	return row, nil
}

// unmarshalIngestRow is decodeIngestRow's encoding/json fallback.
func unmarshalIngestRow(raw []byte) ([]float64, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var obj struct {
			Row []float64 `json:"row"`
		}
		if err := json.Unmarshal(trimmed, &obj); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRow, err)
		}
		if obj.Row == nil {
			return nil, fmt.Errorf("%w: missing \"row\"", errBadRow)
		}
		return obj.Row, nil
	}
	var row []float64
	if err := json.Unmarshal(trimmed, &row); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRow, err)
	}
	return row, nil
}

// shedDrainSlack replaces the rolling deadline when a stream ends,
// shed or not: just enough for the last lines to flush and the rest of
// the body to drain (lineWriter.end). Without this, a rate-limited client
// could keep trickling rows and have each 256-row extend() push the
// deadline 5 minutes out — holding a connection (and its quota slot)
// open indefinitely while every row is refused.
const shedDrainSlack = 5 * time.Second

// ingest streams rows into a model's live accumulator. The first row
// of a new stream fixes its width; a ?decay=D on stream creation sets
// its exponential decay, and later requests naming a different decay
// answer 409 conflict (omit the parameter to join whatever runs). A new
// stream is created at the first row accepted, so a request whose every
// row is refused leaves none behind.
func (s *service) ingest(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	if name == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("missing model name"))
		return
	}
	decay, explicit, ok := queryDecay(w, req)
	if !ok {
		return
	}
	if s.cluster != nil {
		s.ingestClustered(w, req, key, decay, explicit)
		return
	}
	st, err := s.online.Existing(key, decay, explicit)
	if err != nil {
		if errors.Is(err, online.ErrDecayConflict) {
			writeErr(w, http.StatusConflict, CodeConflict, err)
			return
		}
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}

	// Same connection discipline as serveBatch: full duplex so acks
	// flow while the client is still sending, deadlines rolled forward
	// while the stream makes progress.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	extend := func() {
		t := time.Now().Add(batchDeadlineSlack)
		_ = rc.SetReadDeadline(t)
		_ = rc.SetWriteDeadline(t)
	}
	extend()

	src := batchSource(req)
	ctx := req.Context()
	tn := tenantFrom(req)
	gate := s.admission.RowGate(tn, false)
	defer gate.Close()
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	lw := newLineWriter(w, rc)
	defer lw.close()

	var done ingestDone
	var dec rowDecoder
	for index := 0; ; index++ {
		// Acks wait in the buffer only while the next row is already
		// here: before a read that may block on the client, send them.
		if !src.buffered() && !lw.flush() {
			return
		}
		raw, rowErr, more := src.next()
		if !more || ctx.Err() != nil {
			break
		}
		if index%256 == 0 {
			extend()
		}
		done.Rows++
		var row []float64
		if rowErr == nil {
			row, rowErr = decodeIngestRow(&dec, raw)
		}
		if rowErr == nil {
			// The row gate (tenant row bucket) and the fold slot (bounded
			// per-model admission queue) both shed by terminating the
			// stream: the client gets one error line naming the limit and
			// the Retry-After, then the done summary — continuing to read
			// and refuse rows one by one would just burn both sides' CPU.
			if rowErr = gate.Take(ctx); rowErr != nil {
				done.Errors++
				lw.emitErr(index, rowErr)
				break
			}
			var releaseSlot func()
			if releaseSlot, rowErr = s.admission.IngestSlot(ctx, tn, key); rowErr != nil {
				done.Errors++
				lw.emitErr(index, rowErr)
				break
			}
			// A stream another request started since the check above
			// with a different decay ends this one, as a shed does.
			if st == nil {
				if st, rowErr = s.online.Stream(key, decay, explicit); rowErr != nil {
					releaseSlot()
					done.Errors++
					lw.emitErr(index, rowErr)
					break
				}
			}
			var count int
			count, rowErr = st.Push(ctx, row)
			releaseSlot()
			if rowErr == nil {
				done.Accepted++
				done.Count = count
				if !lw.emitAck(index, count) {
					return
				}
				continue
			}
		}
		done.Errors++
		if !lw.emitErr(index, rowErr) {
			return
		}
	}
	s.logger.Info("rows ingested",
		"model", key, "rows", done.Rows, "accepted", done.Accepted,
		"errors", done.Errors, "count", done.Count)
	lw.end(ctx, req.Body, ingestDoneLine{Done: done})
}

// ingestClustered serves POST ingest when the server fronts a sharded
// cluster: rows go into a fan-out session that hash-shards them across
// worker nodes, and the per-row NDJSON response is reassembled from the
// session's in-order chunk acks. The response contract is identical to
// the single-node path — acks and error lines in input order, one per
// row, then the done summary — so clients cannot tell how many machines
// are behind the endpoint.
func (s *service) ingestClustered(w http.ResponseWriter, req *http.Request, name string, decay float64, explicit bool) {
	sess, err := s.cluster.Ingest(req.Context(), name, decay, explicit)
	if err != nil {
		if errors.Is(err, online.ErrDecayConflict) {
			writeErr(w, http.StatusConflict, CodeConflict, err)
			return
		}
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}

	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	extend := func() {
		t := time.Now().Add(batchDeadlineSlack)
		_ = rc.SetReadDeadline(t)
		_ = rc.SetWriteDeadline(t)
	}
	extend()

	src := batchSource(req)
	ctx := req.Context()
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	lw := newLineWriter(w, rc)
	defer lw.close()

	// The ack drainer is the only goroutine writing the response while
	// the request loop below feeds the session; session emission order is
	// input order, so per-row lines come out exactly as the single-node
	// path would produce them. Chunk acks cover a run of rows: the run's
	// final count minus its length recovers each row's running total.
	var accepted, errs int
	var lastCount int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		index := 0
		for ev := range sess.Acks() {
			if ev.Err == nil {
				base := ev.Count - int64(ev.Rows)
				for j := 0; j < ev.Rows; j++ {
					if index%256 == 0 {
						extend()
					}
					accepted++
					lastCount = base + int64(j) + 1
					if !lw.emitAck(index, int(lastCount)) {
						return
					}
					index++
				}
			} else {
				for j := 0; j < ev.Rows; j++ {
					errs++
					if !lw.emitErr(index, ev.Err) {
						return
					}
					index++
				}
			}
			if !lw.flush() {
				return
			}
		}
	}()

	gate := s.admission.RowGate(tenantFrom(req), false)
	defer gate.Close()
	rows := 0
	var dec rowDecoder
	for {
		raw, rowErr, more := src.next()
		if !more || ctx.Err() != nil {
			break
		}
		if rows%256 == 0 {
			extend()
		}
		rows++
		var row []float64
		if rowErr == nil {
			row, rowErr = decodeIngestRow(&dec, raw)
		}
		if rowErr == nil {
			if rowErr = gate.Take(ctx); rowErr != nil {
				// Shed terminates the stream, same as the single-node
				// path: the error line surfaces through the ack drainer
				// in input order, then the session closes.
				sess.PushError(rowErr)
				break
			}
		}
		if rowErr != nil {
			sess.PushError(rowErr)
			continue
		}
		if err := sess.Push(row); err != nil {
			// Session-fatal: no healthy workers remain, or a stream
			// started since the check above runs another decay. The rows
			// already dispatched, or the conflict, surface as error
			// events on Acks; stop feeding.
			s.logger.Error("cluster ingest aborted", "model", name, "error", err)
			break
		}
	}
	closeErr := sess.Close()
	<-drained
	if closeErr != nil {
		s.logger.Error("cluster ingest session closed with error",
			"model", name, "error", closeErr)
	}
	done := ingestDone{Rows: rows, Accepted: accepted, Errors: errs, Count: int(lastCount)}
	s.logger.Info("rows ingested via cluster",
		"model", name, "rows", done.Rows, "accepted", done.Accepted,
		"errors", done.Errors, "count", done.Count)
	lw.end(ctx, req.Body, ingestDoneLine{Done: done})
}

// streamStatus reports a model's live stream (GET .../stream): row and
// reservoir counts, republish/promotion/rejection tallies, and the GE
// values of the last gate decision.
func (s *service) streamStatus(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	status, ok := s.online.Status(key)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("model %q has no live stream", name))
		return
	}
	status.Name = name // the tenant's view, not the scoped store key
	writeJSON(w, http.StatusOK, status)
}

// streamDrop discards a model's live stream and its checkpoint
// (DELETE .../stream). Published model versions are untouched.
func (s *service) streamDrop(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	if !s.online.Drop(key) {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("model %q has no live stream", name))
		return
	}
	s.admission.DropIngestQueue(key)
	s.logger.Info("stream dropped", "model", key)
	w.WriteHeader(http.StatusNoContent)
}
