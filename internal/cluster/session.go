package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/online"
	"ratiorules/internal/stats"
)

// maxInflightChunks bounds unacked chunks per session — the fan-out's
// flow control. Each slot is released when its chunk is acked, so no
// worker send queue can ever hold more than this many entries (which is
// what lets dispatch enqueue without blocking).
const maxInflightChunks = 64

// AckEvent reports the fate of a contiguous run of input rows, in input
// order: the ingest handler turns each event back into per-row NDJSON
// lines. Err nil means all Rows were folded; Count is then the model's
// total accepted rows after them. Err non-nil applies to all Rows
// (chunk-level failures) or to a single pre-validated bad row (Rows 1).
type AckEvent struct {
	Rows  int
	Count int64
	Err   error
}

// inflight is one dispatched chunk (or an already-decided bad-row
// marker) awaiting in-order emission.
type inflight struct {
	seq     uint64
	rows    int
	payload []float64 // retained until acked, for reshard-on-failure
	marker  bool
	done    bool
	err     error
}

// Session is one fan-out ingest stream: rows in input order go in via
// Push, chunk outcomes come back in input order on Acks. The caller
// must drain Acks concurrently with pushing — emission provides the
// backpressure.
type Session struct {
	c        *Coordinator
	name     string
	escName  string
	nameHash uint64
	decay    float64
	stream   *online.Stream
	chunkCap int // rows per chunk: ChunkRows, cut to MaxChunkCells/width
	sem      chan struct{}

	width int       // fixed by the first row
	buf   []float64 // chunk under construction
	seq   uint64
	free  chan []float64 // recycled chunk buffers

	acks chan AckEvent

	mu       sync.Mutex
	cond     *sync.Cond
	fifo     []*inflight
	streams  map[*member]*workerStream
	fatal    error
	emitting bool
	closed   bool

	span *trace.Span
	// traceCtx is the fanout span's W3C traceparent, stamped into every
	// chunk's v2 frame so worker fold spans continue this session's
	// trace across the node boundary.
	traceCtx string
	rows     int64
	// sentTo records every member URL that received chunks, published on
	// the fanout span as remote_node attrs — the remote-child references
	// /debug/traces/{id} surfaces so an operator knows which nodes hold
	// the rest of the trace.
	sentTo map[string]bool
}

// Ingest opens a fan-out session for one model. decay semantics match
// the public ingest endpoint: explicit requests conflict (HTTP 409 via
// online.ErrDecayConflict) when a stream already runs a different one.
func (c *Coordinator) Ingest(ctx context.Context, name string, decay float64, explicitDecay bool) (*Session, error) {
	st, err := c.cfg.Manager.Stream(name, decay, explicitDecay)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	_, span := trace.Start(ctx, "cluster.fanout")
	if span != nil {
		span.SetAttr("model", name)
	}
	s := &Session{
		c:        c,
		name:     name,
		escName:  url.PathEscape(name),
		nameHash: h.Sum64(),
		decay:    decay,
		stream:   st,
		chunkCap: c.cfg.ChunkRows,
		sem:      make(chan struct{}, maxInflightChunks),
		acks:     make(chan AckEvent, maxInflightChunks),
		free:     make(chan []float64, maxInflightChunks+2),
		streams:  make(map[*member]*workerStream),
		span:     span,
		sentTo:   make(map[string]bool),
	}
	if span != nil {
		s.traceCtx = trace.Traceparent(span.TraceID(), span.SpanID())
	}
	s.cond = sync.NewCond(&s.mu)
	c.met.sessions.Inc()
	return s, nil
}

// Acks delivers chunk outcomes in input order; closed by Close.
func (s *Session) Acks() <-chan AckEvent { return s.acks }

// Push appends one row. An invalid row (wrong width, NaN/Inf) does not
// fail the session: it surfaces as a one-row error event in order, like
// the single-node per-row error lines. Finiteness is validated one
// vectorized scan per chunk rather than per row; a chunk that fails the
// scan is split around its bad rows (flushMixed), so per-row error
// reporting survives while the happy path pays ~nothing. The returned
// error is session-fatal only (no healthy workers remain).
func (s *Session) Push(row []float64) error {
	s.mu.Lock()
	fatal := s.fatal
	s.mu.Unlock()
	if fatal != nil {
		return fatal
	}
	if s.width == 0 {
		if len(row) == 0 {
			s.pushMarker(errors.New("cluster: empty row"))
			return nil
		}
		// Every worker refuses a wider frame; within the cap a chunk
		// still holds MaxChunkCells/MaxWireWidth = 256 rows or more.
		if len(row) > MaxWireWidth {
			s.pushMarker(fmt.Errorf("cluster: row width %d exceeds the wire's %d: %w", len(row), MaxWireWidth, core.ErrWidth))
			return nil
		}
		s.width = len(row)
		s.chunkCap = min(s.chunkCap, MaxChunkCells/s.width)
		s.c.registerModel(s.name, s.width, s.decay)
	}
	if len(row) != s.width {
		s.pushMarker(fmt.Errorf("cluster: row width %d, want %d: %w", len(row), s.width, core.ErrWidth))
		return nil
	}
	if s.buf == nil {
		s.buf = s.newBuf()
	}
	s.buf = append(s.buf, row...)
	s.rows++
	if len(s.buf) == s.chunkCap*s.width {
		return s.flushChunk()
	}
	return nil
}

// newBuf hands out a chunk payload buffer, recycling acked ones: a
// fresh allocation per chunk means cold pages on every append and
// constant GC churn, which profiles as the fan-out's dominant cost.
func (s *Session) newBuf() []float64 {
	select {
	case b := <-s.free:
		return b
	default:
		return make([]float64, 0, s.chunkCap*s.width)
	}
}

// putBuf returns an acked chunk's payload for reuse.
func (s *Session) putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	select {
	case s.free <- b[:0]:
	default:
	}
}

// PushError reserves the next input slot for a row that already failed
// upstream of the session (framing or decode), so its error event is
// delivered on Acks in order with the chunk outcomes around it. The
// ingest handler needs this: emitting decode errors directly would race
// ahead of acks still in flight for earlier rows.
func (s *Session) PushError(err error) {
	s.mu.Lock()
	fatal := s.fatal
	s.mu.Unlock()
	if fatal != nil {
		return
	}
	s.pushMarker(err)
}

// pushMarker records a pre-decided bad row, flushing the rows buffered
// before it first so error lines stay in input order.
func (s *Session) pushMarker(err error) {
	_ = s.flushChunk()
	s.enqueueMarker(err)
}

// enqueueMarker appends a one-row error event at the current fifo
// position.
func (s *Session) enqueueMarker(err error) {
	inf := &inflight{rows: 1, marker: true, done: true, err: err}
	s.mu.Lock()
	s.fifo = append(s.fifo, inf)
	s.mu.Unlock()
	s.drain()
}

// flushChunk validates and dispatches the chunk under construction.
func (s *Session) flushChunk() error {
	if len(s.buf) == 0 {
		return nil
	}
	payload := s.buf
	s.buf = s.newBuf()
	if !stats.AllFinite(payload) {
		return s.flushMixed(payload)
	}
	return s.dispatch(payload)
}

// flushMixed handles a chunk whose vectorized finiteness scan failed:
// clean runs dispatch as smaller chunks, each bad row becomes an
// in-order one-row error event — the same per-row semantics the
// single-node path reports, paid only when bad data actually arrives.
func (s *Session) flushMixed(payload []float64) error {
	var firstErr error
	clean := s.newBuf()
	for off := 0; off+s.width <= len(payload); off += s.width {
		row := payload[off : off+s.width]
		if stats.AllFinite(row) {
			clean = append(clean, row...)
			continue
		}
		if len(clean) > 0 {
			if err := s.dispatch(clean); err != nil && firstErr == nil {
				firstErr = err
			}
			clean = s.newBuf()
		}
		s.enqueueMarker(errors.New("cluster: row has non-finite value"))
	}
	if len(clean) > 0 {
		if err := s.dispatch(clean); err != nil && firstErr == nil {
			firstErr = err
		}
	} else {
		s.putBuf(clean)
	}
	s.putBuf(payload)
	return firstErr
}

// dispatch ships one validated payload as a chunk.
func (s *Session) dispatch(payload []float64) error {
	s.seq++
	inf := &inflight{seq: s.seq, rows: len(payload) / s.width, payload: payload}

	// The reservoir must sample the same stream a single node would
	// see; rows are copied on admission, so handing it the payload
	// slice is safe.
	s.stream.ObserveBatch(payload, s.width)

	s.sem <- struct{}{} // flow control: released when the chunk is acked
	key := splitmix64(s.nameHash ^ inf.seq)

	s.mu.Lock()
	s.fifo = append(s.fifo, inf)
	s.mu.Unlock()

	// Dispatch never holds s.mu across I/O or channel sends: the ack
	// readers need it to make progress, and a hung dial to a dying
	// worker must not stall acking (that was a deadlock once).
	not := map[*member]bool{}
	for {
		m := s.c.pick(key, not)
		if m == nil {
			s.mu.Lock()
			s.fatal = ErrNoWorkers
			inf.done, inf.err = true, ErrNoWorkers
			s.mu.Unlock()
			s.release()
			s.drain()
			return ErrNoWorkers
		}
		s.mu.Lock()
		ws := s.streams[m]
		s.mu.Unlock()
		if ws == nil {
			var err error
			ws, err = s.openStream(m)
			if err != nil {
				s.c.markFailed(m, err, false)
				not[m] = true
				continue
			}
			s.mu.Lock()
			s.streams[m] = ws
			s.mu.Unlock()
		}
		if ws.trySend(inf) {
			s.noteSent(m)
			return nil
		}
		// The stream died between lookup and send; its failover drain
		// will not see this chunk, so route it elsewhere ourselves.
		not[m] = true
	}
}

// release frees one inflight slot.
func (s *Session) release() { <-s.sem }

// noteSent records a member as holding part of this session's trace.
func (s *Session) noteSent(m *member) {
	if s.span == nil {
		return
	}
	s.mu.Lock()
	s.sentTo[m.url] = true
	s.mu.Unlock()
}

// drain emits contiguous completed head-of-line events in input order.
// One goroutine at a time owns emission; others return immediately.
func (s *Session) drain() {
	s.mu.Lock()
	if s.emitting {
		s.mu.Unlock()
		return
	}
	s.emitting = true
	for {
		var batch []*inflight
		for len(s.fifo) > 0 && s.fifo[0].done {
			batch = append(batch, s.fifo[0])
			s.fifo = s.fifo[1:]
		}
		if len(batch) == 0 {
			break
		}
		s.mu.Unlock()
		for _, inf := range batch {
			ev := AckEvent{Rows: inf.rows, Err: inf.err}
			if inf.err == nil {
				ev.Count = s.c.ackAccepted(s.name, inf.rows)
				s.c.met.rows.With("ok").Add(float64(inf.rows))
			} else {
				s.c.met.rows.With("rejected").Add(float64(inf.rows))
			}
			s.acks <- ev
		}
		s.mu.Lock()
	}
	s.emitting = false
	if len(s.fifo) == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Close flushes the partial chunk, ends every worker stream, waits for
// all outcomes to be emitted, and closes Acks. The caller must keep
// draining Acks until it closes.
func (s *Session) Close() error {
	_ = s.flushChunk()
	s.mu.Lock()
	s.closed = true
	streams := make([]*workerStream, 0, len(s.streams))
	for _, ws := range s.streams {
		streams = append(streams, ws)
	}
	s.mu.Unlock()
	for _, ws := range streams {
		ws.shutdown()
	}
	s.mu.Lock()
	for len(s.fifo) > 0 {
		s.cond.Wait()
	}
	fatal := s.fatal
	s.mu.Unlock()
	for _, ws := range streams {
		ws.wait()
	}
	close(s.acks)
	s.c.met.sessions.Add(-1)
	if s.span != nil {
		s.span.SetAttr("rows", s.rows)
		s.span.SetAttr("chunks", s.seq)
		s.mu.Lock()
		nodes := make([]string, 0, len(s.sentTo))
		for u := range s.sentTo {
			nodes = append(nodes, u)
		}
		s.mu.Unlock()
		sort.Strings(nodes)
		for _, u := range nodes {
			s.span.SetAttr(trace.RemoteNodeAttr, u)
		}
		if fatal != nil {
			s.span.SetAttr("error", fatal.Error())
		}
		s.span.End()
	}
	return fatal
}

// onAcked marks a chunk finished, recycles its payload (folded or
// definitively rejected; never retried), and hands its slot back.
func (s *Session) onAcked(inf *inflight, err error) {
	s.mu.Lock()
	inf.done, inf.err = true, err
	payload := inf.payload
	inf.payload = nil
	s.mu.Unlock()
	if payload != nil {
		s.putBuf(payload)
	}
	s.release()
	s.drain()
}

// ackError maps a worker ack code onto the error surfaced per row.
func ackError(code uint32) error {
	switch code {
	case AckWidthConflict:
		return errors.New("cluster: worker shard has a different width")
	case AckDecayConflict:
		return errors.New("cluster: worker shard has a different decay")
	default:
		return errors.New("cluster: worker rejected chunk")
	}
}

// workerStream is one full-duplex fan-out connection: a sender feeding
// encoded chunks into the request body pipe and an ack reader matching
// response frames back to inflight chunks in FIFO order.
type workerStream struct {
	s *Session
	m *member

	sendq  chan *inflight
	pw     *io.PipeWriter
	body   io.ReadCloser
	cancel context.CancelFunc

	qmu   sync.Mutex
	sentq []*inflight

	smu    sync.Mutex
	dead   bool // failover in progress: new sends must go elsewhere
	closed bool // sendq closed

	wg        sync.WaitGroup
	closeOnce sync.Once
	failOnce  sync.Once
	senderEnd chan struct{}
}

// trySend enqueues a chunk unless the stream is shutting down. The
// send itself never blocks: cap(sendq) == cap(s.sem), and every queued
// chunk holds a semaphore slot.
func (ws *workerStream) trySend(inf *inflight) bool {
	ws.smu.Lock()
	defer ws.smu.Unlock()
	if ws.dead || ws.closed {
		return false
	}
	ws.sendq <- inf
	return true
}

// openHeadersTimeout bounds the dial + response-headers wait when a
// fan-out stream opens; the stream itself is unbounded.
const openHeadersTimeout = 10 * time.Second

// openStream dials a member's ingest endpoint. The worker writes its
// response headers before reading any body, so Do returns as soon as
// the stream is live; a worker that accepts the connection but never
// answers is cut off by openHeadersTimeout. No session lock is held.
func (s *Session) openStream(m *member) (*workerStream, error) {
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+"/v1/cluster/ingest/"+s.escName, pr)
	if err != nil {
		cancel()
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	// The guard must close the pipe writer, not only cancel: the
	// transport's write loop blocks reading the request body, and Do
	// cannot return — even canceled — until that read is unblocked.
	headerGuard := time.AfterFunc(openHeadersTimeout, func() {
		cancel()
		pw.CloseWithError(fmt.Errorf("cluster: worker %s: no response headers within %v",
			m.url, openHeadersTimeout))
	})
	resp, err := s.c.client.Do(req)
	headerGuard.Stop()
	if err != nil {
		cancel()
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		pw.Close()
		resp.Body.Close()
		return nil, fmt.Errorf("cluster: worker %s ingest status %d", m.url, resp.StatusCode)
	}
	ws := &workerStream{
		s:         s,
		m:         m,
		sendq:     make(chan *inflight, maxInflightChunks),
		pw:        pw,
		body:      resp.Body,
		cancel:    cancel,
		senderEnd: make(chan struct{}),
	}
	ws.wg.Add(2)
	go ws.sender()
	go ws.ackReader()
	return ws, nil
}

// wait blocks until the sender and ack reader have exited.
func (ws *workerStream) wait() { ws.wg.Wait() }

// shutdown ends the stream cleanly: the sender drains its queue and
// closes the request body, the worker acks everything and EOFs. The
// state lock excludes an in-flight trySend from racing the close.
func (ws *workerStream) shutdown() {
	ws.closeOnce.Do(func() {
		ws.smu.Lock()
		ws.closed = true
		close(ws.sendq)
		ws.smu.Unlock()
	})
}

// sender encodes and writes chunks in dispatch order, registering each
// in sentq before it hits the wire so the ack reader can never see an
// ack for an untracked chunk.
func (ws *workerStream) sender() {
	defer ws.wg.Done()
	defer close(ws.senderEnd)
	buf := make([]byte, 0, chunkHeaderLen+ws.s.chunkCap*ws.s.width*8+4)
	for inf := range ws.sendq {
		ws.qmu.Lock()
		ws.sentq = append(ws.sentq, inf)
		ws.qmu.Unlock()
		buf = AppendChunkTrace(buf[:0], inf.seq, ws.s.width, ws.s.decay, ws.s.traceCtx, inf.payload)
		if _, err := ws.pw.Write(buf); err != nil {
			ws.fail(fmt.Errorf("cluster: writing to %s: %w", ws.m.url, err))
			return
		}
	}
	ws.pw.Close()
}

// ackReader consumes ack frames. Worker acks arrive in send order; a
// clean EOF with nothing outstanding ends the stream, anything else is
// a failure that reshards the outstanding chunks.
func (ws *workerStream) ackReader() {
	defer ws.wg.Done()
	br := bufio.NewReaderSize(ws.body, 4<<10)
	for {
		ack, err := ReadAck(br)
		if err != nil {
			ws.qmu.Lock()
			outstanding := len(ws.sentq)
			ws.qmu.Unlock()
			if errors.Is(err, io.EOF) && outstanding == 0 {
				ws.body.Close()
				ws.cancel()
				return
			}
			ws.fail(fmt.Errorf("cluster: reading acks from %s: %w", ws.m.url, err))
			return
		}
		ws.qmu.Lock()
		var inf *inflight
		if len(ws.sentq) > 0 {
			inf = ws.sentq[0]
			ws.sentq = ws.sentq[1:]
		}
		ws.qmu.Unlock()
		if inf == nil || inf.seq != ack.Seq {
			ws.fail(fmt.Errorf("cluster: %s acked seq %d out of order", ws.m.url, ack.Seq))
			return
		}
		var ackErr error
		if ack.Code != AckOK {
			ackErr = ackError(ack.Code)
		}
		ws.s.c.met.chunks.With("ok").Inc()
		ws.s.onAcked(inf, ackErr)
	}
}

// fail tears the stream down once and reshards its unacked chunks.
func (ws *workerStream) fail(err error) {
	ws.failOnce.Do(func() {
		ws.pw.CloseWithError(err)
		ws.body.Close()
		ws.cancel()
		go ws.s.failover(ws, err)
	})
}

// failover removes a failed stream, taints its worker instance (the
// chunks about to be resharded may already sit in its shard, so the
// instance must never rejoin the merge), and re-dispatches every
// unacked chunk to the survivors via one-shot posts.
func (s *Session) failover(ws *workerStream, cause error) {
	// Turn away dispatches racing this teardown (trySend returns false
	// and the pusher re-picks), then unhook the stream.
	ws.smu.Lock()
	ws.dead = true
	ws.smu.Unlock()
	s.mu.Lock()
	if s.streams[ws.m] == ws {
		delete(s.streams, ws.m)
	}
	s.mu.Unlock()
	s.c.markFailed(ws.m, cause, true)

	// The sender exits promptly once the pipe is broken; after that,
	// nothing new enters sentq or leaves sendq.
	ws.shutdown()
	<-ws.senderEnd
	var orphans []*inflight
	ws.qmu.Lock()
	orphans = append(orphans, ws.sentq...)
	ws.sentq = nil
	ws.qmu.Unlock()
	for {
		inf, ok := <-ws.sendq
		if !ok {
			break
		}
		orphans = append(orphans, inf)
	}

	for _, inf := range orphans {
		s.reshard(inf, map[*member]bool{ws.m: true})
	}
}

// reshard retries one orphaned chunk on surviving workers via a
// one-shot request (rare path; the streaming machinery is not worth
// re-entering for it). Exactness holds because a chunk is only
// resharded when its original owner never acked it *and* that owner's
// instance is tainted out of every future merge — the chunk ends up
// folded exactly once, on the survivor.
func (s *Session) reshard(inf *inflight, tried map[*member]bool) {
	for {
		m := s.c.pick(splitmix64(s.nameHash^inf.seq), tried)
		if m == nil {
			s.mu.Lock()
			s.fatal = ErrNoWorkers
			s.mu.Unlock()
			s.c.met.chunks.With("failed").Inc()
			s.onAcked(inf, ErrNoWorkers)
			return
		}
		err := s.postChunk(m, inf)
		if err == nil {
			return
		}
		tried[m] = true
		s.c.markFailed(m, err, true)
	}
}

// postChunk sends one chunk as a plain request/response exchange.
func (s *Session) postChunk(m *member, inf *inflight) error {
	body := AppendChunkTrace(nil, inf.seq, s.width, s.decay, s.traceCtx, inf.payload)
	resp, err := s.c.client.Post(m.url+"/v1/cluster/ingest/"+s.escName,
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: worker %s ingest status %d", m.url, resp.StatusCode)
	}
	ack, err := ReadAck(resp.Body)
	if err != nil {
		return err
	}
	if ack.Seq != inf.seq {
		return fmt.Errorf("cluster: worker %s acked seq %d, want %d", m.url, ack.Seq, inf.seq)
	}
	var ackErr error
	if ack.Code != AckOK {
		ackErr = ackError(ack.Code)
	}
	s.c.met.chunks.With("resharded").Inc()
	s.noteSent(m)
	s.onAcked(inf, ackErr)
	return nil
}

// registerModel records a model's fan-out shape for the merge loop.
func (c *Coordinator) registerModel(name string, width int, decay float64) {
	c.mu.Lock()
	if c.models[name] == nil {
		c.models[name] = &modelState{width: width, decay: decay}
	}
	c.mu.Unlock()
}

// ackAccepted folds acked rows into the model's totals, firing the
// row-count merge trigger, and returns the running accepted count the
// public ack lines report.
func (c *Coordinator) ackAccepted(name string, rows int) int64 {
	c.mu.Lock()
	ms := c.models[name]
	if ms == nil {
		c.mu.Unlock()
		return 0
	}
	ms.pending += rows
	ms.accepted += int64(rows)
	total := ms.accepted
	fire := ms.pending >= c.cfg.RepublishRows
	c.mu.Unlock()
	if fire {
		select {
		case c.wake <- name:
		default:
		}
	}
	return total
}
