package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
)

// newTracedServer starts a test server over an isolated metrics
// registry, a JSON logger captured into buf, and a fresh tracer whose
// flight recorder the test can read directly.
func newTracedServer(t *testing.T) (*httptest.Server, *trace.Tracer, *lockedBuffer) {
	t.Helper()
	buf := &lockedBuffer{}
	logger := obs.NewLogger(buf, slog.LevelInfo, true)
	tr := trace.New(trace.Config{Logger: logger})
	ts := httptest.NewServer(Handler(NewRegistry(),
		WithObs(obs.NewRegistry()), WithLogger(logger), WithTracer(tr)))
	t.Cleanup(ts.Close)
	return ts, tr, buf
}

// lockedBuffer is a goroutine-safe bytes.Buffer: the server logs from
// handler goroutines while tests read.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var traceparentRe = regexp.MustCompile(`^00-[0-9a-f]{32}-[0-9a-f]{16}-01$`)

// TestTraceResponseHeaders checks that a v1 request answers with a
// well-formed traceparent and an X-Request-ID, and that the trace it
// names is retrievable from /debug/traces/{id}.
func TestTraceResponseHeaders(t *testing.T) {
	ts, tr, _ := newTracedServer(t)
	resp := do(t, "GET", ts.URL+"/v1/rules", "")
	tp := resp.Header.Get("Traceparent")
	if !traceparentRe.MatchString(tp) {
		t.Fatalf("traceparent = %q, want 00-<32hex>-<16hex>-01", tp)
	}
	traceID := strings.Split(tp, "-")[1]
	if got := resp.Header.Get(RequestIDHeader); got != traceID {
		t.Errorf("X-Request-ID = %q, want trace ID %q (none sent by client)", got, traceID)
	}
	if _, ok := tr.Recorder().Get(traceID); !ok {
		t.Errorf("trace %s not in the flight recorder", traceID)
	}
}

// TestTraceContinuesRemoteParent checks W3C propagation: a client
// traceparent pins the trace ID, and the client's X-Request-ID is
// echoed back verbatim.
func TestTraceContinuesRemoteParent(t *testing.T) {
	ts, tr, _ := newTracedServer(t)
	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest("GET", ts.URL+"/v1/rules", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+remoteTrace+"-00f067aa0ba902b7-01")
	req.Header.Set(RequestIDHeader, "client-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	tp := resp.Header.Get("Traceparent")
	if !strings.Contains(tp, remoteTrace) {
		t.Errorf("traceparent = %q does not continue remote trace %s", tp, remoteTrace)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "client-req-42" {
		t.Errorf("X-Request-ID = %q, want the client's own id echoed", got)
	}
	td, ok := tr.Recorder().Get(remoteTrace)
	if !ok {
		t.Fatal("continued trace not recorded")
	}
	// The root span must parent to the remote span from the header.
	for _, sp := range td.Spans {
		if sp.Name == "GET /v1/rules" && sp.ParentID != "00f067aa0ba902b7" {
			t.Errorf("root parent = %q, want the remote span id", sp.ParentID)
		}
	}
}

// TestProbeRoutesUntraced checks the exemption: /healthz and /metrics
// answer without trace headers and leave nothing in the recorder.
func TestProbeRoutesUntraced(t *testing.T) {
	ts, tr, _ := newTracedServer(t)
	for _, path := range []string{"/healthz", "/metrics", "/debug/traces"} {
		resp := do(t, "GET", ts.URL+path, "")
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s status = %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Traceparent"); got != "" {
			t.Errorf("GET %s carries traceparent %q, want none", path, got)
		}
		if got := resp.Header.Get(RequestIDHeader); got != "" {
			t.Errorf("GET %s carries X-Request-ID %q, want none", path, got)
		}
	}
	if n := tr.Recorder().Len(); n != 0 {
		t.Errorf("probe requests recorded %d traces, want 0", n)
	}
}

// TestRequestLogCorrelation is the log-correlation contract: the
// request log line of a traced route must carry the same trace_id the
// response traceparent advertised.
func TestRequestLogCorrelation(t *testing.T) {
	ts, _, buf := newTracedServer(t)
	resp := do(t, "GET", ts.URL+"/v1/rules", "")
	traceID := strings.Split(resp.Header.Get("Traceparent"), "-")[1]

	var found bool
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var line struct {
			Msg     string `json:"msg"`
			Route   string `json:"route"`
			TraceID string `json:"trace_id"`
			SpanID  string `json:"span_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("log line not JSON: %q", sc.Text())
		}
		if line.Msg == "request" && line.Route == "/v1/rules" {
			found = true
			if line.TraceID != traceID {
				t.Errorf("log trace_id = %q, want %q", line.TraceID, traceID)
			}
			if line.SpanID == "" {
				t.Errorf("log line missing span_id: %q", sc.Text())
			}
		}
	}
	if !found {
		t.Fatalf("no request log line for /v1/rules at info level in:\n%s", buf.String())
	}
}

// TestBatchTraceTree is the end-to-end acceptance flow: mine a model,
// stream a batch fill, then fetch the trace by the X-Request-ID the
// response carried and assert the span tree nests middleware →
// batch.row → fill.solve with non-zero durations.
func TestBatchTraceTree(t *testing.T) {
	ts, _, _ := newTracedServer(t)
	mine := do(t, "POST", ts.URL+"/v1/rules",
		`{"name":"sales","rows":[[1,2],[2,4.1],[3,5.9],[4,8.2],[5,9.8]]}`)
	if mine.StatusCode != 201 {
		t.Fatalf("mine status = %d", mine.StatusCode)
	}
	body := `[{"record":[4,0],"holes":[1]},{"record":[0,6],"holes":[0]},{"record":[2,0],"holes":[1]}]`
	resp := do(t, "POST", ts.URL+"/v1/rules/sales/batch/fill", body)
	if resp.StatusCode != 200 {
		t.Fatalf("batch fill status = %d", resp.StatusCode)
	}
	reqID := resp.Header.Get(RequestIDHeader)
	if reqID == "" {
		t.Fatal("batch response missing X-Request-ID")
	}

	var tree traceResponse
	if got := doJSON(t, "GET", ts.URL+"/debug/traces/"+reqID, nil, &tree); got != 200 {
		t.Fatalf("debug trace status = %d", got)
	}
	if tree.TraceID != reqID || len(tree.Tree) != 1 {
		t.Fatalf("trace = %+v, want one root", tree)
	}
	root := tree.Tree[0]
	if root.Name != "POST /v1/rules/{name}/batch/fill" {
		t.Fatalf("root span = %q", root.Name)
	}
	var rows, solves int
	for _, row := range root.Children {
		if row.Name != "batch.row" {
			continue
		}
		rows++
		if row.DurationMS <= 0 {
			t.Errorf("batch.row %s has zero duration", row.SpanID)
		}
		for _, c := range row.Children {
			if c.Name == "fill.solve" {
				solves++
			}
		}
	}
	if rows != 3 || solves != 3 {
		t.Fatalf("tree has %d batch.row / %d fill.solve spans, want 3 each", rows, solves)
	}
}

// TestDebugTracesListing exercises the flight-recorder listing: the
// ?sort=duration ordering, the ?n cap, parameter validation, and the
// 404 envelope for unknown trace IDs.
func TestDebugTracesListing(t *testing.T) {
	ts, _, _ := newTracedServer(t)
	for i := 0; i < 5; i++ {
		do(t, "GET", ts.URL+"/v1/rules", "")
	}
	var list tracesResponse
	if got := doJSON(t, "GET", ts.URL+"/debug/traces?sort=duration&n=3", nil, &list); got != 200 {
		t.Fatalf("listing status = %d", got)
	}
	if list.Retained != 5 || list.Total != 5 || len(list.Traces) != 3 {
		t.Fatalf("listing = retained %d total %d traces %d, want 5/5/3",
			list.Retained, list.Total, len(list.Traces))
	}
	for i := 1; i < len(list.Traces); i++ {
		if list.Traces[i].Duration > list.Traces[i-1].Duration {
			t.Errorf("sort=duration out of order: %v then %v",
				list.Traces[i-1].Duration, list.Traces[i].Duration)
		}
	}
	if got := doJSON(t, "GET", ts.URL+"/debug/traces?sort=zzz", nil, nil); got != 400 {
		t.Errorf("bad sort status = %d", got)
	}
	if got := doJSON(t, "GET", ts.URL+"/debug/traces?n=-1", nil, nil); got != 400 {
		t.Errorf("bad n status = %d", got)
	}
	var envelope errorBody
	if got := doJSON(t, "GET", ts.URL+"/debug/traces/"+strings.Repeat("ab", 16), nil, &envelope); got != 404 {
		t.Errorf("unknown trace status = %d", got)
	}
	if envelope.Error.Code != CodeNotFound {
		t.Errorf("unknown trace code = %q, want %q", envelope.Error.Code, CodeNotFound)
	}
}

// TestErrorEnvelopeCarriesTraceHeaders checks that error responses on
// traced routes still carry the correlation headers (set before the
// handler runs).
func TestErrorEnvelopeCarriesTraceHeaders(t *testing.T) {
	ts, _, _ := newTracedServer(t)
	resp := do(t, "GET", ts.URL+"/v1/rules/nope", "")
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !traceparentRe.MatchString(resp.Header.Get("Traceparent")) {
		t.Errorf("404 missing traceparent header")
	}
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Errorf("404 missing X-Request-ID header")
	}
}

// TestRuntimeGaugesOnMetrics checks the runtime collector satellites:
// the Go runtime gauges must appear on this handler's /metrics.
func TestRuntimeGaugesOnMetrics(t *testing.T) {
	ts, _, _ := newTracedServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rr_go_goroutines", "rr_go_heap_bytes",
		"rr_go_gc_pause_seconds", "rr_process_uptime_seconds",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestSlowTraceLog checks the always-on slow-trace line: with a zero
// threshold every trace is "slow", so one request must log one line.
func TestSlowTraceLog(t *testing.T) {
	buf := &lockedBuffer{}
	logger := obs.NewLogger(buf, slog.LevelInfo, true)
	tr := trace.New(trace.Config{Slow: 1, Logger: logger}) // 1ns: everything is slow
	ts := httptest.NewServer(Handler(NewRegistry(),
		WithObs(obs.NewRegistry()), WithLogger(logger), WithTracer(tr)))
	t.Cleanup(ts.Close)

	resp := do(t, "GET", ts.URL+"/v1/rules", "")
	traceID := strings.Split(resp.Header.Get("Traceparent"), "-")[1]
	logs := buf.String()
	if !strings.Contains(logs, "slow trace") || !strings.Contains(logs, traceID) {
		t.Fatalf("no slow-trace line naming %s in:\n%s", traceID, logs)
	}
}
