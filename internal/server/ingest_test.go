package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ratiorules/internal/obs"
	"ratiorules/internal/online"
)

// ingestLine is a superset decode target for ingest NDJSON responses.
type ingestLine struct {
	Index int        `json:"index"`
	Count int        `json:"count"`
	Error *errorInfo `json:"error"`
	Done  *struct {
		Rows     int `json:"rows"`
		Accepted int `json:"accepted"`
		Errors   int `json:"errors"`
		Count    int `json:"count"`
	} `json:"done"`
}

// readIngestLines decodes the whole ingest response, asserting the
// NDJSON content type and that exactly the last line is the summary.
func readIngestLines(t *testing.T, resp *http.Response) (acks []ingestLine, done ingestLine) {
	t.Helper()
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ndjsonContentType {
		t.Fatalf("ingest Content-Type %q, want %q", got, ndjsonContentType)
	}
	var lines []ingestLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var l ingestLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("malformed ingest line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 || lines[len(lines)-1].Done == nil {
		t.Fatalf("ingest response missing done summary: %+v", lines)
	}
	for _, l := range lines[:len(lines)-1] {
		if l.Done != nil {
			t.Fatalf("done summary before end of stream: %+v", lines)
		}
	}
	return lines[:len(lines)-1], lines[len(lines)-1]
}

// onlineTestServer builds a server over its own registry and a manager
// with a deterministic row trigger.
func onlineTestServer(t *testing.T, cfg online.Config) *httptest.Server {
	t.Helper()
	reg := NewRegistry()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	mgr, err := online.NewManager(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mgr.Close() })
	ts := httptest.NewServer(Handler(reg, WithObs(cfg.Metrics), WithOnline(mgr)))
	t.Cleanup(ts.Close)
	return ts
}

// TestIngestContract drives the ingest framing end to end: bare-array
// and {"row":...} lines ack in order, malformed and wrong-width rows
// get error lines in their slots, and the final summary reconciles.
func TestIngestContract(t *testing.T) {
	ts := onlineTestServer(t, online.Config{RepublishRows: 1 << 30})
	body := `[1, 2]
{"row": [2, 4]}
not json
[1, 2, 3]
{"other": true}
[3, 6]
`
	resp := doRaw(t, "POST", ts.URL+"/v1/rules/live/ingest", ndjsonContentType, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d, want 200", resp.StatusCode)
	}
	lines, done := readIngestLines(t, resp)
	if len(lines) != 6 {
		t.Fatalf("got %d row lines, want 6: %+v", len(lines), lines)
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d carries index %d: ordering broken", i, l.Index)
		}
	}
	wantErr := map[int]bool{2: true, 3: true, 4: true}
	counts := 0
	for i, l := range lines {
		if wantErr[i] {
			if l.Error == nil || l.Error.Code != CodeBadRequest {
				t.Errorf("line %d: want bad_request error, got %+v", i, l)
			}
			continue
		}
		if l.Error != nil {
			t.Errorf("line %d: unexpected error %+v", i, l.Error)
			continue
		}
		counts++
		if l.Count != counts {
			t.Errorf("line %d: count %d, want %d", i, l.Count, counts)
		}
	}
	if done.Done.Rows != 6 || done.Done.Accepted != 3 || done.Done.Errors != 3 || done.Done.Count != 3 {
		t.Fatalf("done summary = %+v", *done.Done)
	}

	// The stream status agrees with the acks.
	var status online.StreamStatus
	if code := doJSON(t, "GET", ts.URL+"/v1/rules/live/stream", nil, &status); code != 200 {
		t.Fatalf("stream status code %d", code)
	}
	if status.Rows != 3 || status.Width != 2 || status.Pending != 3 {
		t.Fatalf("stream status = %+v", status)
	}
}

// TestIngestRepublishServes pins the loop the subsystem exists for:
// ingesting past the row trigger makes the model appear at GET
// /v1/rules/{name} with a version ETag, with no explicit mine call.
func TestIngestRepublishServes(t *testing.T) {
	ts := onlineTestServer(t, online.Config{RepublishRows: 20})

	if resp := doRaw(t, "GET", ts.URL+"/v1/rules/live", "", ""); resp.StatusCode != 404 {
		t.Fatalf("model served before any ingest: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	var body strings.Builder
	for _, row := range ratioRows(40) {
		b, _ := json.Marshal(row)
		body.Write(b)
		body.WriteByte('\n')
	}
	resp := doRaw(t, "POST", ts.URL+"/v1/rules/live/ingest", ndjsonContentType, body.String())
	_, done := readIngestLines(t, resp)
	if done.Done.Accepted != 40 {
		t.Fatalf("accepted %d rows, want 40", done.Done.Accepted)
	}

	// Row trigger fires synchronously (manager not Started), so the
	// promoted model is immediately visible.
	get := doRaw(t, "GET", ts.URL+"/v1/rules/live", "", "")
	defer get.Body.Close()
	if get.StatusCode != 200 {
		t.Fatalf("model not served after republish: %d", get.StatusCode)
	}
	if etag := get.Header.Get("ETag"); etag != `"v2"` {
		// 40 rows crossed the 20-row trigger twice: two promotions.
		t.Fatalf("served ETag %q, want \"v2\"", etag)
	}
	var status online.StreamStatus
	doJSON(t, "GET", ts.URL+"/v1/rules/live/stream", nil, &status)
	if status.Promotions != 2 || status.LastVersion != 2 {
		t.Fatalf("stream status after promotions = %+v", status)
	}

	// The mined model behaves: fill reconstructs the 1:2 ratio.
	var fill fillResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/rules/live/fill",
		fillRequest{Record: []float64{3, 0}, Holes: []int{1}}, &fill); code != 200 {
		t.Fatalf("fill against ingested model: %d", code)
	}
	if got := fill.Filled[1]; got < 5.9 || got > 6.1 {
		t.Fatalf("fill(x=3) = %g, want ~6", got)
	}
}

// TestIngestDecayContract pins the decay parameter semantics: invalid
// values 400, a conflicting explicit decay 409 with the conflict code,
// omitting the parameter joins the running stream.
func TestIngestDecayContract(t *testing.T) {
	ts := onlineTestServer(t, online.Config{RepublishRows: 1 << 30})

	resp := doRaw(t, "POST", ts.URL+"/v1/rules/live/ingest?decay=1.5", ndjsonContentType, "[1,2]\n")
	if resp.StatusCode != 400 {
		t.Fatalf("invalid decay status %d, want 400", resp.StatusCode)
	}
	if code := decodeEnvelope(t, "invalid decay", resp.Body); code != CodeBadRequest {
		t.Fatalf("invalid decay code %q", code)
	}
	resp.Body.Close()

	resp = doRaw(t, "POST", ts.URL+"/v1/rules/live/ingest?decay=0.25", ndjsonContentType, "[1,2]\n[2,4]\n")
	if resp.StatusCode != 200 {
		t.Fatalf("creating decayed stream: %d", resp.StatusCode)
	}
	readIngestLines(t, resp)

	resp = doRaw(t, "POST", ts.URL+"/v1/rules/live/ingest?decay=0.5", ndjsonContentType, "[3,6]\n")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting decay status %d, want 409", resp.StatusCode)
	}
	if code := decodeEnvelope(t, "decay conflict", resp.Body); code != CodeConflict {
		t.Fatalf("decay conflict code %q, want %q", code, CodeConflict)
	}
	resp.Body.Close()

	resp = doRaw(t, "POST", ts.URL+"/v1/rules/live/ingest", ndjsonContentType, "[3,6]\n")
	if resp.StatusCode != 200 {
		t.Fatalf("implicit join status %d, want 200", resp.StatusCode)
	}
	_, done := readIngestLines(t, resp)
	if done.Done.Count != 3 {
		t.Fatalf("joined stream count = %d, want 3", done.Done.Count)
	}

	var status online.StreamStatus
	doJSON(t, "GET", ts.URL+"/v1/rules/live/stream", nil, &status)
	if status.Decay != 0.25 {
		t.Fatalf("stream decay = %v, want 0.25", status.Decay)
	}
}

// TestIngestDecayConflictAtFirstRow: a request for a model without a
// stream passes the decay check, and its first row, refused for being
// empty, creates nothing. When another request then starts the stream
// with a different decay, the first row this request would fold ends
// it with one conflict line, the way a shed ends a stream.
func TestIngestDecayConflictAtFirstRow(t *testing.T) {
	ts := onlineTestServer(t, online.Config{RepublishRows: 1 << 30})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /v1/rules/late/ingest?decay=0.5 HTTP/1.1\r\n"+
		"Host: ingest-test\r\nContent-Type: %s\r\nTransfer-Encoding: chunked\r\n\r\n", ndjsonContentType)
	chunk := func(s string) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%x\r\n%s\r\n", len(s), s); err != nil {
			t.Fatal(err)
		}
	}
	chunk("[]\n")
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response headers mid-request: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	lines := bufio.NewScanner(resp.Body) // closed with conn
	var l ingestLine
	if !lines.Scan() || json.Unmarshal(lines.Bytes(), &l) != nil || l.Error == nil || l.Error.Code != CodeBadRequest {
		t.Fatalf("first line %q, want a bad_request error", lines.Text())
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/rules/late/stream", nil, nil); status != http.StatusNotFound {
		t.Fatalf("stream status after the refused row = %d, want 404", status)
	}

	readIngestLines(t, doRaw(t, "POST", ts.URL+"/v1/rules/late/ingest?decay=0.25", ndjsonContentType, "[1,2]\n"))
	chunk("[2,4]\n[3,6]\n")
	fmt.Fprint(conn, "0\r\n\r\n")
	var rest []ingestLine
	for lines.Scan() {
		var l ingestLine
		if err := json.Unmarshal(lines.Bytes(), &l); err != nil {
			t.Fatalf("malformed line %q: %v", lines.Text(), err)
		}
		rest = append(rest, l)
	}
	if len(rest) != 2 || rest[0].Index != 1 || rest[0].Error == nil || rest[0].Error.Code != CodeConflict {
		t.Fatalf("lines after the conflicting stream started: %+v, want one conflict line at index 1, then done", rest)
	}
	if d := rest[1].Done; d == nil || d.Rows != 2 || d.Accepted != 0 || d.Errors != 2 {
		t.Fatalf("done = %+v, want 2 rows, 2 errors", d)
	}
	var status online.StreamStatus
	doJSON(t, "GET", ts.URL+"/v1/rules/late/stream", nil, &status)
	if status.Decay != 0.25 || status.Rows != 1 {
		t.Fatalf("stream decay %v rows %d, want the other request's 0.25 and 1", status.Decay, status.Rows)
	}
}

// TestStreamLifecycle pins GET/DELETE /stream and the model-delete
// cascade.
func TestStreamLifecycle(t *testing.T) {
	ts := onlineTestServer(t, online.Config{RepublishRows: 10})

	resp := doRaw(t, "GET", ts.URL+"/v1/rules/live/stream", "", "")
	if resp.StatusCode != 404 {
		t.Fatalf("absent stream status %d, want 404", resp.StatusCode)
	}
	if code := decodeEnvelope(t, "absent stream", resp.Body); code != CodeNotFound {
		t.Fatalf("absent stream code %q", code)
	}
	resp.Body.Close()

	var body strings.Builder
	for _, row := range ratioRows(10) {
		b, _ := json.Marshal(row)
		body.Write(b)
		body.WriteByte('\n')
	}
	resp = doRaw(t, "POST", ts.URL+"/v1/rules/live/ingest", ndjsonContentType, body.String())
	readIngestLines(t, resp)

	// DELETE the stream: gone, idempotently 404 afterwards, while the
	// promoted model keeps serving.
	resp = doRaw(t, "DELETE", ts.URL+"/v1/rules/live/stream", "", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("stream delete status %d, want 204", resp.StatusCode)
	}
	resp = doRaw(t, "DELETE", ts.URL+"/v1/rules/live/stream", "", "")
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("second stream delete status %d, want 404", resp.StatusCode)
	}
	if resp := doRaw(t, "GET", ts.URL+"/v1/rules/live", "", ""); resp.StatusCode != 200 {
		t.Fatalf("model lost with its stream: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Re-ingest, then DELETE the model: the stream cascades away.
	resp = doRaw(t, "POST", ts.URL+"/v1/rules/live/ingest", ndjsonContentType, "[1,2]\n")
	readIngestLines(t, resp)
	resp = doRaw(t, "DELETE", ts.URL+"/v1/rules/live", "", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("model delete status %d, want 204", resp.StatusCode)
	}
	resp = doRaw(t, "GET", ts.URL+"/v1/rules/live/stream", "", "")
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("stream survived model delete: %d", resp.StatusCode)
	}
}
