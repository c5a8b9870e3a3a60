package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
)

// workerDeadlineSlack is the rolling read/write deadline a worker keeps
// ahead of an active fan-out stream, mirroring the public batch
// endpoints: a live coordinator never trips it, a hung one frees the
// connection within the slack.
const workerDeadlineSlack = 5 * time.Minute

// deadlineEveryChunks bounds how often the deadline is pushed forward.
const deadlineEveryChunks = 256

// brokenStreamSlack replaces the rolling deadline when a fan-out stream
// ends on a bad frame: time for the reply's last chunk to go out and
// for net/http's bounded read of the rest of the body.
const brokenStreamSlack = 5 * time.Second

// Worker is one cluster node: a set of per-model StreamMiner shards fed
// by binary fan-out streams, snapshotted on demand for the
// coordinator's pull-merge-republish loop. Workers never eigensolve,
// gate, or publish — they only fold rows.
type Worker struct {
	instance string
	tracer   *trace.Tracer

	chunks *obs.CounterVec // result: ok|width_conflict|decay_conflict|bad_chunk
	rows   *obs.Counter
	pulls  *obs.Counter

	mu     sync.Mutex
	shards map[string]*workerShard
}

// workerShard guards one model's local accumulator. The miner is
// created lazily by the first chunk, which fixes width and decay.
type workerShard struct {
	mu sync.Mutex
	sm *core.StreamMiner
}

// WorkerOption configures a Worker.
type WorkerOption func(*workerConfig)

type workerConfig struct {
	reg    *obs.Registry
	tracer *trace.Tracer
}

// WithWorkerObs registers the worker's rr_cluster_worker_* metrics on
// reg instead of a private registry.
func WithWorkerObs(reg *obs.Registry) WorkerOption {
	return func(c *workerConfig) { c.reg = reg }
}

// WithWorkerTracer records cluster.fold spans on t. Chunks carrying a
// coordinator trace context (v2 frames) continue that trace, so one
// trace ID spans the fan-out across nodes.
func WithWorkerTracer(t *trace.Tracer) WorkerOption {
	return func(c *workerConfig) { c.tracer = t }
}

// NewWorker creates an empty node with a fresh random instance ID. The
// ID distinguishes a rejoined (empty) worker from the crashed process
// that previously answered on the same address, which is what keeps
// degraded-mode shard retention from double-counting.
func NewWorker(opts ...WorkerOption) *Worker {
	cfg := workerConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.reg == nil {
		cfg.reg = obs.NewRegistry()
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: instance id: %v", err))
	}
	return &Worker{
		instance: hex.EncodeToString(b[:]),
		tracer:   cfg.tracer,
		chunks: cfg.reg.CounterVec("rr_cluster_worker_chunks_total",
			"Fan-out chunks folded by result.", "result"),
		rows: cfg.reg.Counter("rr_cluster_worker_rows_total",
			"Rows folded into local shards."),
		pulls: cfg.reg.Counter("rr_cluster_worker_shard_pulls_total",
			"Shard snapshots served to coordinators."),
		shards: make(map[string]*workerShard),
	}
}

// Instance returns the node's random per-process identity.
func (w *Worker) Instance() string { return w.instance }

// Handler serves the node's internal API: the binary fan-out stream,
// shard snapshots, and health.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/ingest/{name}", w.serveIngest)
	mux.HandleFunc("GET /v1/cluster/shard/{name}", w.serveShard)
	mux.HandleFunc("GET /v1/cluster/shards", w.serveShards)
	mux.HandleFunc("GET /healthz", w.serveHealth)
	if w.tracer != nil {
		mux.HandleFunc("GET /debug/traces", w.serveTraces)
		mux.HandleFunc("GET /debug/traces/{id}", w.serveTrace)
	}
	return mux
}

// serveTraces lists the node's recent traces — the worker-node
// equivalent of the server's GET /debug/traces, so a coordinator trace
// ID can be chased onto any node that folded part of it.
func (w *Worker) serveTraces(rw http.ResponseWriter, _ *http.Request) {
	rec := w.tracer.Recorder()
	out := struct {
		Retained int             `json:"retained"`
		Total    uint64          `json:"total"`
		Traces   []trace.Summary `json:"traces"`
	}{Retained: rec.Len(), Total: rec.Total(), Traces: rec.Summaries(50, false)}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(out)
}

// serveTrace returns this node's local subtree of one trace plus its
// remote references (for fold streams, a "parent" ref naming the
// coordinator span that fanned out to us).
func (w *Worker) serveTrace(rw http.ResponseWriter, r *http.Request) {
	td, ok := w.tracer.Recorder().Get(r.PathValue("id"))
	if !ok {
		http.Error(rw, "unknown trace", http.StatusNotFound)
		return
	}
	out := struct {
		TraceID    string            `json:"trace_id"`
		Name       string            `json:"name"`
		Start      time.Time         `json:"start"`
		DurationMS float64           `json:"duration_ms"`
		Spans      int               `json:"spans"`
		Dropped    int               `json:"dropped"`
		Remote     []trace.RemoteRef `json:"remote,omitempty"`
		Tree       []*trace.SpanNode `json:"tree"`
	}{
		TraceID:    td.TraceID,
		Name:       td.Name,
		Start:      td.Start,
		DurationMS: float64(td.Duration) / 1e6,
		Spans:      len(td.Spans),
		Dropped:    td.Dropped,
		Remote:     trace.RemoteRefs(td.Spans),
		Tree:       trace.BuildTree(td.Spans),
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(out)
}

// getShard returns the named shard, creating an empty slot on first
// use.
func (w *Worker) getShard(name string) *workerShard {
	w.mu.Lock()
	defer w.mu.Unlock()
	sh, ok := w.shards[name]
	if !ok {
		sh = &workerShard{}
		w.shards[name] = sh
	}
	return sh
}

// ackResult maps an ack code to its metric label.
func ackResult(code uint32) string {
	switch code {
	case AckOK:
		return "ok"
	case AckWidthConflict:
		return "width_conflict"
	case AckDecayConflict:
		return "decay_conflict"
	default:
		return "bad_chunk"
	}
}

// FoldChunk applies one chunk to the named shard and builds its ack:
// width and decay must match the shard, and the rows fold by one
// all-or-nothing PushBatch. serveIngest calls it per decoded wire
// frame.
//
// Each fold records a "cluster.fold" span: a child of the trace in ctx
// when one is active (such as the fold_stream span serveIngest opens
// for a traced stream), otherwise a continuation root parented on the chunk's
// remote trace context — so either way the span carries the
// coordinator's trace ID across the fold.
func (w *Worker) FoldChunk(ctx context.Context, name string, c Chunk) Ack {
	_, sp := trace.Start(ctx, "cluster.fold")
	if sp == nil && w.tracer != nil && c.Trace != "" {
		if remote, err := trace.ParseTraceparent(c.Trace); err == nil {
			_, sp = w.tracer.StartRoot(ctx, "cluster.fold", remote)
		}
	}
	ack := w.fold(name, c)
	if sp != nil {
		sp.SetAttr("model", name)
		sp.SetAttr("seq", c.Seq)
		sp.SetAttr("rows", ack.Rows)
		sp.SetAttr("instance", w.instance)
		sp.SetAttr("result", ackResult(ack.Code))
		sp.End()
	}
	return ack
}

// fold is FoldChunk minus the span bookkeeping.
func (w *Worker) fold(name string, c Chunk) Ack {
	ack := Ack{Seq: c.Seq, Rows: len(c.Rows) / c.Width}
	sh := w.getShard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sm == nil {
		sm, err := core.NewStreamMiner(c.Width, c.Decay)
		if err != nil {
			ack.Code = AckBadChunk
			w.chunks.With(ackResult(ack.Code)).Inc()
			return ack
		}
		sh.sm = sm
	}
	switch {
	case sh.sm.Width() != c.Width:
		ack.Code = AckWidthConflict
	case sh.sm.Decay() != c.Decay:
		ack.Code = AckDecayConflict
	default:
		if err := sh.sm.PushBatch(c.Rows); err != nil {
			ack.Code = AckBadChunk
		}
	}
	ack.ShardRows = uint64(sh.sm.Count())
	w.chunks.With(ackResult(ack.Code)).Inc()
	if ack.Code == AckOK {
		w.rows.Add(float64(ack.Rows))
	}
	return ack
}

// serveIngest is the fan-out receiver: binary chunk frames in, one ack
// frame out per chunk, full-duplex on one connection for the life of
// the coordinator session. The first trace-carrying chunk roots a
// "cluster.fold_stream" span continuing the coordinator's trace, so
// the whole stream's folds land in one local subtree under the remote
// fanout parent.
func (w *Worker) serveIngest(rw http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rc := http.NewResponseController(rw)
	_ = rc.EnableFullDuplex()
	_ = rc.SetReadDeadline(time.Now().Add(workerDeadlineSlack))
	_ = rc.SetWriteDeadline(time.Now().Add(workerDeadlineSlack))
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	sctx := r.Context()
	var root *trace.Span
	chunks := 0
	defer func() {
		if root != nil {
			root.SetAttr("chunks", chunks)
			root.End()
		}
	}()

	ackBuf := make([]byte, 0, ackFrameLen)
	sinceDeadline := 0
	for {
		c, err := ReadChunk(r.Body)
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			// Framing is broken; there is no trustworthy seq to ack, so
			// drop the connection and let the coordinator retry the
			// unacked chunks elsewhere.
			closeAfterReply(rw, rc)
			return
		}
		if root == nil && w.tracer != nil && c.Trace != "" {
			if remote, perr := trace.ParseTraceparent(c.Trace); perr == nil {
				sctx, root = w.tracer.StartRoot(sctx, "cluster.fold_stream", remote)
				root.SetAttr("model", name)
				root.SetAttr("instance", w.instance)
			}
		}
		chunks++
		ack := w.FoldChunk(sctx, name, c)
		ackBuf = AppendAck(ackBuf[:0], ack)
		if _, err := rw.Write(ackBuf); err != nil {
			return
		}
		_ = rc.Flush()
		if sinceDeadline++; sinceDeadline >= deadlineEveryChunks {
			sinceDeadline = 0
			_ = rc.SetReadDeadline(time.Now().Add(workerDeadlineSlack))
			_ = rc.SetWriteDeadline(time.Now().Add(workerDeadlineSlack))
		}
	}
}

// closeAfterReply ends a stream whose body is still arriving. Left to
// itself, net/http reads the rest of the body after the handler returns
// and, once that read reaches EOF, reads the next request while its
// background reader is still running: it logs "http: panic serving
// ...: invalid concurrent Body.Read call" and drops the connection.
// Reading past a zero-byte MaxBytesReader is how a handler whose headers
// are out asks net/http to close the connection after the reply
// instead, as the public streams' lineWriter.end does; the deadlines
// bound what is left of the exchange.
func closeAfterReply(rw http.ResponseWriter, rc *http.ResponseController) {
	t := time.Now().Add(brokenStreamSlack)
	_ = rc.SetReadDeadline(t)
	_ = rc.SetWriteDeadline(t)
	_, _ = http.MaxBytesReader(rw, io.NopCloser(strings.NewReader(" ")), 0).Read(make([]byte, 1))
}

// Snapshot encodes the named shard as a pull document. It returns
// (nil, false) when the node holds no rows for the model yet.
func (w *Worker) Snapshot(name string) ([]byte, bool, error) {
	w.mu.Lock()
	sh, ok := w.shards[name]
	w.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sm == nil {
		return nil, false, nil
	}
	doc, err := EncodeShard(name, w.instance, sh.sm)
	if err != nil {
		return nil, false, err
	}
	return doc, true, nil
}

// serveShard answers a coordinator pull with the checksummed shard
// document; 404 means the node has folded nothing for the model.
func (w *Worker) serveShard(rw http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	doc, ok, err := w.Snapshot(name)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(rw, "no shard", http.StatusNotFound)
		return
	}
	w.pulls.Inc()
	rw.Header().Set("Content-Type", "application/json")
	_, _ = rw.Write(doc)
}

// shardInfo is one row of the GET /v1/cluster/shards listing.
type shardInfo struct {
	Name  string  `json:"name"`
	Width int     `json:"width"`
	Decay float64 `json:"decay"`
	Rows  int     `json:"rows"`
}

// serveShards lists the node's shards.
func (w *Worker) serveShards(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	names := make([]string, 0, len(w.shards))
	for name := range w.shards {
		names = append(names, name)
	}
	w.mu.Unlock()
	sort.Strings(names)
	out := struct {
		Instance string      `json:"instance"`
		Shards   []shardInfo `json:"shards"`
	}{Instance: w.instance, Shards: make([]shardInfo, 0, len(names))}
	for _, name := range names {
		sh := w.getShard(name)
		sh.mu.Lock()
		if sh.sm != nil {
			out.Shards = append(out.Shards, shardInfo{
				Name: name, Width: sh.sm.Width(), Decay: sh.sm.Decay(), Rows: sh.sm.Count(),
			})
		}
		sh.mu.Unlock()
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(out)
}

// serveHealth is the membership probe target.
func (w *Worker) serveHealth(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(map[string]string{
		"status":   "ok",
		"instance": w.instance,
	})
}
