// Package trace is the request-scoped tracing layer of the Ratio Rules
// system: a dependency-free span tracer that answers "why was *this*
// request slow?" where the metrics registry (internal/obs) can only
// answer in aggregates.
//
// A trace is a tree of spans sharing one 16-byte trace ID. The HTTP
// middleware opens the root span per request (continuing a W3C
// `traceparent` from the wire when the client sent one), and every
// layer below — the batch worker pool, the per-row fill solve, the
// store WAL, the miner phases — opens children with Start. Spans
// flow through context.Context, so parentage survives goroutine hops
// as long as the ctx does.
//
// Completed traces land in a bounded in-process ring buffer (the
// "flight recorder", see Recorder): no external collector, no sampling
// daemon, just the last N request trees queryable over HTTP
// (GET /debug/traces in internal/server). Traces whose root exceeds
// the configured Slow threshold additionally emit one always-on log
// line, so the slowest requests leave evidence even after the ring
// has rolled over.
//
// Overhead is bounded by design: span IDs come from math/rand/v2
// (lock-free, per-goroutine state), each trace caps its span count at
// MaxSpans (further Starts return a no-op span and count as dropped),
// and a finished trace is a plain value in a fixed-size ring. Library
// code can call Start unconditionally: with no active trace in ctx it
// returns a nil span whose methods are all no-ops.
package trace

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"
)

// Counter is the write side of a monotonic metric. It matches
// *obs.Counter; the tracer cannot import internal/obs directly (obs
// already imports this package for log correlation), so the dependency
// points this way.
type Counter interface{ Inc() }

// Defaults for Config zero values.
const (
	// DefaultBufferSize is the flight-recorder capacity in traces.
	DefaultBufferSize = 256
	// DefaultMaxSpans caps the spans recorded per trace; beyond it new
	// spans are dropped (and counted), bounding per-request allocation
	// no matter how many rows a batch streams.
	DefaultMaxSpans = 512
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanData is the immutable record of a finished span.
type SpanData struct {
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Config tunes a Tracer. The zero value selects the defaults above,
// with the slow-trace log disabled.
type Config struct {
	// BufferSize is the flight-recorder ring capacity in completed
	// traces (rrserve -trace-buffer); <= 0 selects DefaultBufferSize.
	BufferSize int
	// MaxSpans bounds the spans recorded per trace; <= 0 selects
	// DefaultMaxSpans.
	MaxSpans int
	// Slow is the always-on slow-trace log threshold (rrserve
	// -trace-slow): a completed trace at least this long logs one line
	// through Logger. 0 disables the log.
	Slow time.Duration
	// Logger receives slow-trace lines; nil disables them.
	Logger *slog.Logger
	// Dropped, when non-nil, is incremented once per span refused after
	// the per-trace cap (obs.SpanDropCounter registers the conventional
	// rr_trace_spans_dropped_total). Span loss is silent by design on
	// streaming routes — one NDJSON request can want thousands of spans
	// — so the aggregate counter is how an operator notices it at all;
	// the per-trace count is in /debug/traces/{id}.
	Dropped Counter
}

// Tracer owns a flight recorder and the per-trace policy. Construct
// with New; safe for concurrent use.
type Tracer struct {
	rec      *Recorder
	maxSpans int
	slow     time.Duration
	logger   *slog.Logger
	dropped  Counter
}

// New returns a Tracer over a fresh flight recorder.
func New(cfg Config) *Tracer {
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	return &Tracer{
		rec:      NewRecorder(cfg.BufferSize),
		maxSpans: cfg.MaxSpans,
		slow:     cfg.Slow,
		logger:   cfg.Logger,
		dropped:  cfg.Dropped,
	}
}

// Recorder returns the tracer's flight recorder (the read side for the
// /debug/traces endpoints).
func (t *Tracer) Recorder() *Recorder { return t.rec }

// state is the accumulation shared by every span of one trace.
type state struct {
	tracer  *Tracer
	traceID string

	mu      sync.Mutex
	spans   []SpanData
	started int  // spans handed out, bounded by tracer.maxSpans
	dropped int  // Starts refused after the cap
	done    bool // root ended; the trace is sealed
}

// Span is one timed operation within a trace. A nil *Span is a valid
// no-op: every method checks for it, so library code can Start/End
// unconditionally. A span's attrs belong to the goroutine that started
// it; End publishes them to the shared trace under the trace lock.
type Span struct {
	st     *state
	name   string
	spanID string
	parent string
	start  time.Time
	root   bool
	attrs  []Attr
}

// ctxKey carries the active *Span through context.
type ctxKey struct{}

// StartRoot opens the root span of a new trace. When remote is valid —
// a parsed incoming `traceparent` — the new trace continues the
// caller's trace ID with the remote span as the root's parent;
// otherwise a fresh trace ID is generated. The returned ctx carries
// the span for Start calls below.
func (t *Tracer) StartRoot(ctx context.Context, name string, remote SpanContext) (context.Context, *Span) {
	st := &state{tracer: t, started: 1}
	var parent string
	if remote.Valid() {
		st.traceID = remote.TraceID
		parent = remote.SpanID
	} else {
		st.traceID = newTraceID()
	}
	sp := &Span{
		st:     st,
		name:   name,
		spanID: newSpanID(),
		parent: parent,
		start:  time.Now(),
		root:   true,
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Start opens a child of the span carried by ctx. Without an active
// trace — or once the trace hit its span cap or its root already ended
// — it returns ctx unchanged and a nil (no-op) span, so callers never
// branch on tracing being enabled.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil || parent.st == nil {
		return ctx, nil
	}
	st := parent.st
	st.mu.Lock()
	if st.done || st.started >= st.tracer.maxSpans {
		st.dropped++
		st.mu.Unlock()
		if c := st.tracer.dropped; c != nil {
			c.Inc()
		}
		return ctx, nil
	}
	st.started++
	st.mu.Unlock()
	sp := &Span{
		st:     st,
		name:   name,
		spanID: newSpanID(),
		parent: parent.spanID,
		start:  time.Now(),
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// SetAttr annotates the span. Attrs set after End are lost. Call only
// from the goroutine that started the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.st == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// TraceID returns the 32-hex-digit trace ID ("" for a no-op span).
func (s *Span) TraceID() string {
	if s == nil || s.st == nil {
		return ""
	}
	return s.st.traceID
}

// SpanID returns the 16-hex-digit span ID ("" for a no-op span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// End finishes the span, publishing it to the trace. Ending the root
// seals the trace: its spans go to the flight recorder, the slow-trace
// log fires if configured, and stragglers — children ending after the
// root, which only happens when work outlives the request — are
// discarded. End on a nil span or a sealed trace is a no-op.
func (s *Span) End() {
	if s == nil || s.st == nil {
		return
	}
	st := s.st
	dur := time.Since(s.start)
	data := SpanData{
		SpanID:   s.spanID,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: dur,
		Attrs:    s.attrs,
	}
	st.mu.Lock()
	if st.done {
		st.mu.Unlock()
		return
	}
	st.spans = append(st.spans, data)
	if !s.root {
		st.mu.Unlock()
		return
	}
	st.done = true
	spans := st.spans
	dropped := st.dropped
	st.mu.Unlock()

	t := st.tracer
	t.rec.Add(TraceData{
		TraceID:  st.traceID,
		Name:     s.name,
		Start:    s.start,
		Duration: dur,
		Spans:    spans,
		Dropped:  dropped,
	})
	if t.slow > 0 && dur >= t.slow && t.logger != nil {
		t.logger.Warn("slow trace",
			"trace_id", st.traceID, "name", s.name,
			"duration", dur, "spans", len(spans), "dropped", dropped)
	}
}

// FromContext reports the active trace and span IDs, for log
// correlation (see WrapHandler).
func FromContext(ctx context.Context) (traceID, spanID string, ok bool) {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	if sp == nil || sp.st == nil {
		return "", "", false
	}
	return sp.st.traceID, sp.spanID, true
}

// newTraceID returns 16 random bytes as 32 lowercase hex digits,
// re-rolling the (astronomically unlikely) all-zero value the W3C
// spec forbids.
func newTraceID() string {
	for {
		hi, lo := rand.Uint64(), rand.Uint64()
		if hi|lo != 0 {
			return fmt.Sprintf("%016x%016x", hi, lo)
		}
	}
}

// newSpanID returns 8 random bytes as 16 lowercase hex digits, never
// all-zero.
func newSpanID() string {
	for {
		if v := rand.Uint64(); v != 0 {
			return fmt.Sprintf("%016x", v)
		}
	}
}
