package server

// Pooled NDJSON line output shared by the streaming write paths (batch
// inference and ingest acks). Those handlers emit one small JSON line
// per input row. A lineWriter rents a buffer from a process-wide
// sync.Pool for the duration of the request and appends every line to
// it: ingest's acks and batch/fill's lines through rowcodec.go's
// appenders, the rest (error lines, the ingest summary, forecast and
// outlier lines) through a json.Encoder that writes into the same
// buffer. json.Encoder appends the trailing '\n' itself, so both forms
// frame lines identically.
//
// Lines are not written out one by one. The buffer goes to the client
// when the handler is about to wait — ingest before it reads with no
// complete line buffered, the batch emitter when no result is ready,
// the cluster ingest drainer after each chunk ack — once it reaches
// flushBytes, and at the end of the response (end, which then drains
// the request body). A line is thus held only while the server has
// more buffered input or ready results, so a client that waits for an
// answer before sending more still gets it.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// lineBuf is one pooled output buffer; enc appends to b through Write.
type lineBuf struct {
	b   []byte
	enc *json.Encoder
}

func (lb *lineBuf) Write(p []byte) (int, error) {
	lb.b = append(lb.b, p...)
	return len(p), nil
}

var linePool = sync.Pool{
	New: func() any {
		lb := &lineBuf{}
		lb.enc = json.NewEncoder(lb)
		return lb
	},
}

// lineWriter buffers one response's NDJSON lines and writes them out in
// bursts. Not safe for concurrent use — each request path has exactly
// one emitting goroutine.
type lineWriter struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	lb  *lineBuf
	err error // first write or flush error; nothing is written after it
}

// newLineWriter rents a pooled buffer for the request. Callers must
// close() when the response is done.
func newLineWriter(w http.ResponseWriter, rc *http.ResponseController) *lineWriter {
	lb := linePool.Get().(*lineBuf)
	lb.b = lb.b[:0]
	return &lineWriter{w: w, rc: rc, lb: lb}
}

// emit encodes v as one NDJSON line with encoding/json. It reports
// false when the value cannot be encoded or the client is gone; callers
// stop streaming on false. Nothing is added on an encode failure, so
// the line framing can never be corrupted mid-stream.
func (lw *lineWriter) emit(v any) bool {
	if lw.err != nil || lw.lb.enc.Encode(v) != nil {
		return false
	}
	return lw.spill()
}

// emitErr encodes a row-error line for index with the envelope code
// derived from err — the shared shape of every streaming endpoint.
func (lw *lineWriter) emitErr(index int, err error) bool {
	_, code := errStatus(err)
	return lw.emit(lineError{Index: index, Error: errorInfo{Code: code, Message: err.Error()}})
}

// emitAck adds ingest's success line for one row.
func (lw *lineWriter) emitAck(index, count int) bool {
	return lw.add(appendAckLine(lw.lb.b, index, count), true)
}

// emitFilled adds batch/fill's success line; like emit, it reports
// false and adds nothing when a value is NaN or ±Inf.
func (lw *lineWriter) emitFilled(index int, filled []float64) bool {
	return lw.add(appendFillLine(lw.lb.b, index, filled))
}

// add keeps b, the buffer with one more line appended, when ok.
func (lw *lineWriter) add(b []byte, ok bool) bool {
	if !ok || lw.err != nil {
		return false
	}
	lw.lb.b = b
	return lw.spill()
}

// spill writes the buffer out once it reaches flushBytes.
func (lw *lineWriter) spill() bool {
	if len(lw.lb.b) >= flushBytes {
		return lw.flush()
	}
	return true
}

// flush writes the buffered lines to the client and flushes the
// response. It reports false once a write or flush has failed.
func (lw *lineWriter) flush() bool {
	if lw.err != nil || len(lw.lb.b) == 0 {
		return lw.err == nil
	}
	_, err := lw.w.Write(lw.lb.b)
	lw.lb.b = lw.lb.b[:0]
	if err == nil {
		// A writer that cannot flush still gets every line, at the end.
		if err = lw.rc.Flush(); errors.Is(err, http.ErrNotSupported) {
			err = nil
		}
	}
	lw.err = err
	return err == nil
}

// close writes out what is still buffered and returns the buffer to
// the pool. Oversized buffers (a huge batch result line) are dropped
// rather than pooled so one outlier row does not pin memory.
func (lw *lineWriter) close() {
	if lw.lb == nil {
		return
	}
	lw.flush() // a failure here means the client is gone; nothing is left to do
	if cap(lw.lb.b) <= maxPooledLineBytes {
		linePool.Put(lw.lb)
	}
	lw.lb = nil
}

// end finishes the response: it gives what is left shedDrainSlack,
// writes last (when non-nil) and every buffered line out, then reads
// the request body to EOF. A stream can end before its body does (a
// line over the cap, a shed row, bytes after a JSON array); left to
// net/http, the rest of the body makes it log "invalid concurrent
// Body.Read call" and drop the keep-alive connection. A client still
// sending past maxDrainBytes or the deadline cannot hold the handler:
// the drain stops, and net/http closes the connection once the reply's
// last chunk is out, FIN first, so the client still reads a whole
// response. The caller must have stopped every other reader of body; a
// canceled ctx skips the drain, as the client is gone.
func (lw *lineWriter) end(ctx context.Context, body io.ReadCloser, last any) {
	t := time.Now().Add(shedDrainSlack)
	_ = lw.rc.SetReadDeadline(t)
	_ = lw.rc.SetWriteDeadline(t)
	if last != nil {
		lw.emit(last)
	}
	if !lw.flush() || ctx.Err() != nil {
		return
	}
	// MaxBytesReader reaches net/http's own writer only unwrapped.
	w := lw.w
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			break
		}
		w = u.Unwrap()
	}
	if _, err := io.Copy(io.Discard, http.MaxBytesReader(w, body, maxDrainBytes)); err != nil {
		// A read past a MaxBytesReader limit is how a handler whose
		// headers are out asks net/http to close after the reply; past
		// maxDrainBytes that has happened, past the deadline it is done
		// here. The reply's last chunk gets a write deadline of its own.
		_, _ = http.MaxBytesReader(w, io.NopCloser(strings.NewReader(" ")), 0).Read(make([]byte, 1))
		_ = lw.rc.SetWriteDeadline(time.Now().Add(shedDrainSlack))
	}
}

// maxDrainBytes bounds what end reads of a body after the response:
// net/http's own tolerance for unread request bytes.
const maxDrainBytes = 256 << 10

// flushBytes is the most a lineWriter holds before it writes out, below
// maxPooledLineBytes so a buffer of ordinary lines stays poolable.
const flushBytes = 32 << 10

// maxPooledLineBytes bounds what a returned buffer may retain: lines
// are typically well under 1 KiB, so 64 KiB keeps every normal workload
// allocation-free while letting rare megabyte-class outlier lines be
// garbage collected.
const maxPooledLineBytes = 64 << 10
