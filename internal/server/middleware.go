package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"ratiorules/internal/admission"
	"ratiorules/internal/cluster"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/fleet"
	"ratiorules/internal/obs/profile"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/online"
	"ratiorules/internal/replica"
)

// handlerConfig carries the observability and limit wiring for Handler.
type handlerConfig struct {
	metrics       *obs.Registry
	logger        *slog.Logger
	maxBodyBytes  int64
	batchWorkers  int
	tracer        *trace.Tracer
	online        *online.Manager
	cluster       *cluster.Coordinator
	fleet         *fleet.Collector
	profiles      *profile.Ring
	follower      *replica.Follower
	leaderURL     string
	maxReplicaLag time.Duration
	admission     *admission.Controller
}

// HandlerOption customizes Handler.
type HandlerOption func(*handlerConfig)

// WithObs records HTTP and miner metrics into r instead of the
// process-wide obs.Default() registry (tests use this for isolation;
// note the miner's own metrics always go to the default registry).
func WithObs(r *obs.Registry) HandlerOption {
	return func(c *handlerConfig) { c.metrics = r }
}

// WithLogger routes request and service logs to l. Without it the
// handler is silent.
func WithLogger(l *slog.Logger) HandlerOption {
	return func(c *handlerConfig) { c.logger = l }
}

// WithMaxBodyBytes caps request bodies at n bytes (default
// DefaultMaxBodyBytes); oversized bodies answer 413 with the uniform
// error envelope. n <= 0 disables the cap. The streaming batch
// endpoints are exempt (they bound memory per row, not per body).
func WithMaxBodyBytes(n int64) HandlerOption {
	return func(c *handlerConfig) { c.maxBodyBytes = n }
}

// WithBatchWorkers bounds the worker pool each batch request runs on
// (rrserve -batch-workers). n <= 0 selects core.DefaultBatchWorkers().
func WithBatchWorkers(n int) HandlerOption {
	return func(c *handlerConfig) { c.batchWorkers = n }
}

// WithTracer supplies the request tracer (rrserve wires -trace-buffer
// and -trace-slow through it). Without it Handler builds a default
// tracer, so /debug/traces always works; tracing cannot be disabled,
// only bounded.
func WithTracer(t *trace.Tracer) HandlerOption {
	return func(c *handlerConfig) { c.tracer = t }
}

// WithOnline supplies the live-ingest manager serving the ingest and
// stream routes (rrserve wires -republish-rows, -ge-slack and the
// checkpoint directory through it and owns its Start/Close lifecycle).
// Without it Handler builds a default manager — no checkpointing, no
// background republisher, row-count triggers republish synchronously —
// so the routes work out of the box.
func WithOnline(m *online.Manager) HandlerOption {
	return func(c *handlerConfig) { c.online = m }
}

// WithCluster puts the server in coordinator mode: POST ingest fans
// rows out to the cluster's worker nodes instead of folding them into
// the local accumulator, /readyz reports cluster membership and
// degradation, and the /v1/cluster/* admin routes (status, join, force
// republish) are mounted. The coordinator must share its online.Manager
// with WithOnline — merged shards republish through it, so promotion
// gating, versioning and alerts behave exactly as on a single node. The
// caller owns the coordinator's Start/Close lifecycle (rrserve wires
// -cluster-workers and friends through it).
func WithCluster(c *cluster.Coordinator) HandlerOption {
	return func(cfg *handlerConfig) { cfg.cluster = c }
}

// WithFleet mounts the federated fleet surface over c: GET
// /metrics/fleet serves every member's last scrape as one
// node="..."-labeled exposition and GET /debug/fleet serves the JSON
// rollup. The caller owns the collector's Run lifecycle (rrserve wires
// -fleet-members and -fleet-every through it). Without this option both
// routes answer 404 not_found.
func WithFleet(c *fleet.Collector) HandlerOption {
	return func(cfg *handlerConfig) { cfg.fleet = c }
}

// WithProfiles serves the continuous-profiling ring at GET
// /debug/profiles[/{id}]. The caller owns the ring's Run lifecycle
// (rrserve wires -profile-every and -profile-cpu through it). Without
// this option Handler builds a passive ring, so the routes always
// answer — just with an empty listing.
func WithProfiles(r *profile.Ring) HandlerOption {
	return func(cfg *handlerConfig) { cfg.profiles = r }
}

// WithAdmission puts the API surface behind the given admission
// controller: bearer-token tenant auth, per-tenant rate limits and
// concurrency quotas, tenant-scoped model namespaces, and global load
// shedding (see internal/admission and docs/api.md). The caller owns
// the controller's Run lifecycle (rrserve wires -tenants-file, SIGHUP
// reload and the -admission-* flags through it). Without this option
// every request runs unauthenticated against the root namespace on the
// exact pre-admission code path. The replication and cluster-internal
// routes stay outside admission either way — isolate them at the
// network layer (see docs/runbook.md).
func WithAdmission(c *admission.Controller) HandlerOption {
	return func(cfg *handlerConfig) { cfg.admission = c }
}

// WithFollower puts the server in read-only follower mode: every GET
// and inference route serves from the local replica (bodies and ETags
// byte-identical to the leader at the same seq), mutating routes answer
// 403 read_only pointing clients at leaderURL, and /readyz reports the
// follower's replication lag — degraded while behind, 503
// replica_lagging (with Retry-After) once staleness exceeds maxLag
// (DefaultMaxReplicaLag if <= 0). The caller owns the follower's Run
// lifecycle (rrserve wires -follow and -max-replica-lag through this).
func WithFollower(f *replica.Follower, leaderURL string, maxLag time.Duration) HandlerOption {
	return func(cfg *handlerConfig) {
		cfg.follower = f
		cfg.leaderURL = leaderURL
		cfg.maxReplicaLag = maxLag
	}
}

// httpMetrics is the per-handler request accounting: counts by route,
// method and status class, per-route latency histograms, and an
// in-flight gauge.
type httpMetrics struct {
	requests *obs.CounterVec   // route, method, status
	latency  *obs.HistogramVec // route
	inflight *obs.Gauge
	logger   *slog.Logger
	tracer   *trace.Tracer
}

func newHTTPMetrics(reg *obs.Registry, logger *slog.Logger, tracer *trace.Tracer) *httpMetrics {
	return &httpMetrics{
		requests: reg.CounterVec("rr_http_requests_total",
			"HTTP requests by route pattern, method and status class.",
			"route", "method", "status"),
		latency: reg.HistogramVec("rr_http_request_seconds",
			"HTTP request service time by route pattern.", obs.DefBuckets, "route"),
		inflight: reg.Gauge("rr_http_in_flight_requests",
			"HTTP requests currently being served."),
		logger: logger,
		tracer: tracer,
	}
}

// RequestIDHeader is echoed on every traced (v1) response: the client's
// own X-Request-ID when it sent one, otherwise the trace ID — either
// way a value the client can quote in a bug report and the operator can
// look up at /debug/traces/{id}.
const RequestIDHeader = "X-Request-ID"

// statusWriter records the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Unwrap exposes the wrapped writer to http.ResponseController, which
// the streaming endpoints use to enable full-duplex streaming and to
// flush their NDJSON lines.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps h with request accounting under the given route
// label (the registered pattern path, keeping label cardinality fixed
// no matter what paths clients send). The probe and debug routes use
// this untraced form; traffic routes go through instrumentTraced.
func (m *httpMetrics) instrument(route string, h http.Handler) http.Handler {
	return m.observe(route, h, false)
}

// instrumentTraced is instrument plus a root trace span per request:
// an incoming W3C traceparent is continued (malformed ones start a
// fresh trace), the response echoes traceparent and X-Request-ID
// before the handler runs, and the span lands in the flight recorder
// with status/bytes attrs when the request finishes. The request log
// line below logs with the span's context, so the obs log handler
// stamps trace_id/span_id onto it.
func (m *httpMetrics) instrumentTraced(route string, h http.Handler) http.Handler {
	return m.observe(route, h, true)
}

func (m *httpMetrics) observe(route string, h http.Handler, traced bool) http.Handler {
	hist := m.latency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Inc()
		defer m.inflight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		var sp *trace.Span
		if traced && m.tracer != nil {
			remote, _ := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
			ctx, span := m.tracer.StartRoot(r.Context(), r.Method+" "+route, remote)
			sp = span
			r = r.WithContext(ctx)
			// Headers must land before the handler's first write; they
			// survive onto every response shape — JSON, NDJSON stream,
			// error envelope.
			sw.Header().Set(trace.TraceparentHeader, trace.Traceparent(span.TraceID(), span.SpanID()))
			reqID := r.Header.Get(RequestIDHeader)
			if reqID == "" {
				reqID = span.TraceID()
			}
			sw.Header().Set(RequestIDHeader, reqID)
		}
		timer := obs.NewTimer(hist)
		h.ServeHTTP(sw, r)
		elapsed := timer.ObserveDuration()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		m.requests.With(route, methodLabel(r.Method), statusClass(sw.status)).Inc()
		// Traced (v1) requests log at info so the correlation line is
		// visible at the default level; probe/debug routes stay at debug
		// to keep scrapes out of the logs.
		level, msg := slog.LevelDebug, "request"
		if traced {
			level = slog.LevelInfo
		}
		switch {
		case sw.status >= 500:
			level, msg = slog.LevelError, "request failed"
		case sw.status >= 400:
			level, msg = slog.LevelWarn, "request rejected"
		}
		m.logger.Log(r.Context(), level, msg,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration", elapsed,
		)
		if sp != nil {
			sp.SetAttr("status", sw.status)
			sp.SetAttr("bytes", sw.bytes)
			sp.End()
		}
	})
}

// statusClass buckets a status code into 1xx..5xx.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// methodLabel clamps the method label to the standard set so clients
// cannot grow metric cardinality with invented methods.
func methodLabel(m string) string {
	switch m {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
		http.MethodPatch, http.MethodDelete, http.MethodOptions:
		return m
	}
	return "OTHER"
}

// methodNotAllowed answers wrong-method hits on a known path with 405,
// the Allow header, and the JSON error envelope (the instrument
// wrapper logs it at warn).
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeErr(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Errorf("method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow))
	}
}
