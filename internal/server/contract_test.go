package server

// The v1 contract test walks every route of the public HTTP surface
// and pins down the externally observable behavior clients depend on:
// status codes, error-envelope shape and codes, Allow headers on 405s,
// ETag/If-None-Match handling, ?version pinning, and the NDJSON batch
// framing. If this test has to change, the API contract changed —
// update docs/api.md in the same commit.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"
)

// contractServer mines the "m" model twice so version 1 is retained
// history and version 2 is the head.
func contractServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := newTestServer(t)
	mineModel(t, ts, "m")
	mineModel(t, ts, "m")
	return ts
}

// doRaw performs a request with an optional raw body and content type,
// returning the response (caller closes).
func doRaw(t *testing.T, method, url, contentType, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeEnvelope asserts the body is the uniform error envelope and
// returns its code.
func decodeEnvelope(t *testing.T, label string, body io.Reader) string {
	t.Helper()
	var env errorBody
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		t.Fatalf("%s: body is not the error envelope: %v", label, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("%s: envelope missing code or message: %+v", label, env)
	}
	return env.Error.Code
}

// TestV1Contract walks the whole surface with a golden table.
func TestV1Contract(t *testing.T) {
	ts := contractServer(t)

	cases := []struct {
		label       string
		method      string
		path        string
		contentType string
		body        string
		wantStatus  int
		wantCode    string // "" = success body, no envelope
		wantAllow   string
		everyRole   bool // also checked on a follower and a coordinator
	}{
		{label: "health", method: "GET", path: "/healthz", wantStatus: 200},
		{label: "ready", method: "GET", path: "/readyz", wantStatus: 200},
		{label: "metrics", method: "GET", path: "/metrics", wantStatus: 200},
		{label: "debug alerts", method: "GET", path: "/debug/alerts", wantStatus: 200},
		{label: "debug traces", method: "GET", path: "/debug/traces", wantStatus: 200},
		{label: "debug trace absent", method: "GET", path: "/debug/traces/deadbeef",
			wantStatus: 404, wantCode: CodeNotFound},
		// The retired profiling ring's paths are outside the route table
		// on every role: profiling is pprof on rrserve's -debug-addr only.
		{label: "retired debug profiles", method: "GET", path: "/debug/profiles",
			wantStatus: 404, wantCode: CodeNotFound, everyRole: true},
		{label: "retired debug profile", method: "GET", path: "/debug/profiles/1",
			wantStatus: 404, wantCode: CodeNotFound, everyRole: true},
		// No fleet collector configured on this node: the routes exist
		// (not 404-by-absence — wrong methods still draw 405 below) but
		// answer not_found with an explanatory envelope.
		{label: "metrics fleet unconfigured", method: "GET", path: "/metrics/fleet",
			wantStatus: 404, wantCode: CodeNotFound},
		{label: "debug fleet unconfigured", method: "GET", path: "/debug/fleet",
			wantStatus: 404, wantCode: CodeNotFound},
		{label: "unknown path", method: "GET", path: "/nope", wantStatus: 404, wantCode: CodeNotFound},
		{label: "unknown v1 path", method: "POST", path: "/v1/bogus", wantStatus: 404, wantCode: CodeNotFound},

		{label: "mine bad JSON", method: "POST", path: "/v1/rules", body: "{",
			wantStatus: 400, wantCode: CodeBadRequest},
		{label: "mine missing name", method: "POST", path: "/v1/rules",
			body: `{"rows":[[1,2]]}`, wantStatus: 400, wantCode: CodeBadRequest},
		{label: "mine missing rows", method: "POST", path: "/v1/rules",
			body: `{"name":"x"}`, wantStatus: 400, wantCode: CodeBadRequest},
		{label: "list", method: "GET", path: "/v1/rules", wantStatus: 200},

		{label: "get absent", method: "GET", path: "/v1/rules/absent",
			wantStatus: 404, wantCode: CodeNotFound},
		{label: "get head", method: "GET", path: "/v1/rules/m", wantStatus: 200},
		{label: "get pinned", method: "GET", path: "/v1/rules/m?version=1", wantStatus: 200},
		{label: "get unretained pin", method: "GET", path: "/v1/rules/m?version=99",
			wantStatus: 404, wantCode: CodeVersionNotFound},
		{label: "get pin on absent model", method: "GET", path: "/v1/rules/absent?version=1",
			wantStatus: 404, wantCode: CodeNotFound},
		{label: "get malformed pin", method: "GET", path: "/v1/rules/m?version=abc",
			wantStatus: 400, wantCode: CodeBadRequest},
		{label: "put garbage model", method: "PUT", path: "/v1/rules/m", body: "not json",
			wantStatus: 400, wantCode: CodeBadRequest},
		{label: "put non-orthonormal model", method: "PUT", path: "/v1/rules/m",
			body:       `{"means":[0,0,0],"eigenvalues":[1],"total_variance":1,"trained_rows":10,"vectors":[[0.5],[0.5],[0.5]]}`,
			wantStatus: 400, wantCode: CodeBadRequest},
		{label: "put two concatenated models", method: "PUT", path: "/v1/rules/twice",
			body:       strings.Repeat(`{"means":[0,0],"eigenvalues":[1],"total_variance":1,"trained_rows":10,"vectors":[[1],[0]]}`, 2),
			wantStatus: 400, wantCode: CodeBadRequest},
		{label: "delete absent", method: "DELETE", path: "/v1/rules/absent",
			wantStatus: 404, wantCode: CodeNotFound},

		{label: "versions", method: "GET", path: "/v1/rules/m/versions", wantStatus: 200},
		{label: "versions absent", method: "GET", path: "/v1/rules/absent/versions",
			wantStatus: 404, wantCode: CodeNotFound},
		{label: "rollback invalid version", method: "POST", path: "/v1/rules/m/rollback",
			body: `{"version":0}`, wantStatus: 400, wantCode: CodeBadRequest},
		{label: "rollback unretained", method: "POST", path: "/v1/rules/m/rollback",
			body: `{"version":99}`, wantStatus: 404, wantCode: CodeVersionNotFound},
		{label: "rollback absent", method: "POST", path: "/v1/rules/absent/rollback",
			body: `{"version":1}`, wantStatus: 404, wantCode: CodeNotFound},

		{label: "fill ok", method: "POST", path: "/v1/rules/m/fill",
			body: `{"record":[3,0],"holes":[1]}`, wantStatus: 200},
		{label: "fill pinned", method: "POST", path: "/v1/rules/m/fill?version=1",
			body: `{"record":[3,0],"holes":[1]}`, wantStatus: 200},
		{label: "fill unretained pin", method: "POST", path: "/v1/rules/m/fill?version=99",
			body: `{"record":[3,0],"holes":[1]}`, wantStatus: 404, wantCode: CodeVersionNotFound},
		{label: "fill bad hole", method: "POST", path: "/v1/rules/m/fill",
			body: `{"record":[3,0],"holes":[9]}`, wantStatus: 400, wantCode: CodeBadRequest},
		{label: "fill wrong width", method: "POST", path: "/v1/rules/m/fill",
			body: `{"record":[3],"holes":[0]}`, wantStatus: 400, wantCode: CodeBadRequest},
		{label: "fill absent model", method: "POST", path: "/v1/rules/absent/fill",
			body: `{"record":[3,0],"holes":[1]}`, wantStatus: 404, wantCode: CodeNotFound},

		{label: "forecast ok", method: "POST", path: "/v1/rules/m/forecast",
			body: `{"given":{"0":3},"target":1}`, wantStatus: 200},
		{label: "forecast target given", method: "POST", path: "/v1/rules/m/forecast",
			body: `{"given":{"0":3},"target":0}`, wantStatus: 400, wantCode: CodeBadRequest},
		{label: "whatif ok", method: "POST", path: "/v1/rules/m/whatif",
			body: `{"given":{"0":3}}`, wantStatus: 200},
		{label: "project ok", method: "POST", path: "/v1/rules/m/project",
			body: `{"rows":[[1,2]],"dims":1}`, wantStatus: 200},
		{label: "project ragged rows", method: "POST", path: "/v1/rules/m/project",
			body: `{"rows":[[1,2],[1]],"dims":1}`, wantStatus: 400, wantCode: CodeBadRequest},
		{label: "outliers ok", method: "POST", path: "/v1/rules/m/outliers",
			body: `{"rows":[[1,2],[1,50]]}`, wantStatus: 200},

		{label: "batch fill unretained pin", method: "POST", path: "/v1/rules/m/batch/fill?version=99",
			body: `[]`, wantStatus: 404, wantCode: CodeVersionNotFound},
		{label: "batch outliers bad sigma", method: "POST", path: "/v1/rules/m/batch/outliers?sigma=-1",
			body: `[]`, wantStatus: 400, wantCode: CodeBadRequest},
		{label: "batch fill absent model", method: "POST", path: "/v1/rules/absent/batch/fill",
			body: `[]`, wantStatus: 404, wantCode: CodeNotFound},

		{label: "model health head", method: "GET", path: "/v1/rules/m/health", wantStatus: 200},
		{label: "model health pinned", method: "GET", path: "/v1/rules/m/health?version=1", wantStatus: 200},
		{label: "model health absent", method: "GET", path: "/v1/rules/absent/health",
			wantStatus: 404, wantCode: CodeNotFound},
		{label: "model health unretained pin", method: "GET", path: "/v1/rules/m/health?version=99",
			wantStatus: 404, wantCode: CodeVersionNotFound},
		{label: "model health malformed pin", method: "GET", path: "/v1/rules/m/health?version=abc",
			wantStatus: 400, wantCode: CodeBadRequest},

		{label: "ingest invalid decay", method: "POST", path: "/v1/rules/m/ingest?decay=2",
			body: "[1,2]\n", wantStatus: 400, wantCode: CodeBadRequest},
		{label: "stream status absent", method: "GET", path: "/v1/rules/m/stream",
			wantStatus: 404, wantCode: CodeNotFound},
		{label: "stream delete absent", method: "DELETE", path: "/v1/rules/m/stream",
			wantStatus: 404, wantCode: CodeNotFound},

		{label: "405 rules", method: "PATCH", path: "/v1/rules",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "GET, POST"},
		{label: "405 model", method: "PATCH", path: "/v1/rules/m",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "GET, PUT, DELETE"},
		{label: "405 versions", method: "POST", path: "/v1/rules/m/versions",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "GET"},
		{label: "405 fill", method: "GET", path: "/v1/rules/m/fill",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "POST"},
		{label: "405 batch fill", method: "GET", path: "/v1/rules/m/batch/fill",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "POST"},
		{label: "405 batch forecast", method: "DELETE", path: "/v1/rules/m/batch/forecast",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "POST"},
		{label: "405 batch outliers", method: "PUT", path: "/v1/rules/m/batch/outliers",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "POST"},
		{label: "405 ingest", method: "GET", path: "/v1/rules/m/ingest",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "POST"},
		{label: "405 stream", method: "POST", path: "/v1/rules/m/stream",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "GET, DELETE"},
		{label: "405 model health", method: "POST", path: "/v1/rules/m/health",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "GET"},
		// Probes and debug routes live in the same route table, so a
		// wrong method answers 405 + Allow, not a bare 404.
		{label: "405 healthz", method: "POST", path: "/healthz",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "GET"},
		{label: "405 metrics", method: "POST", path: "/metrics",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "GET"},
		{label: "405 metrics fleet", method: "POST", path: "/metrics/fleet",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "GET"},
		{label: "405 debug fleet", method: "POST", path: "/debug/fleet",
			wantStatus: 405, wantCode: CodeMethodNotAllowed, wantAllow: "GET"},
	}

	_, follower, _ := newFollowerPair(t)
	coordinator := newClusterTestServer(t, 1).ts
	for _, tc := range cases {
		servers := map[string]string{"leader": ts.URL}
		if tc.everyRole {
			servers["follower"] = follower.URL
			servers["coordinator"] = coordinator.URL
		}
		for role, base := range servers {
			label := tc.label
			if role != "leader" {
				label += " on a " + role
			}
			resp := doRaw(t, tc.method, base+tc.path, tc.contentType, tc.body)
			if resp.StatusCode != tc.wantStatus {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Errorf("%s: status %d, want %d (body %s)", label, resp.StatusCode, tc.wantStatus, body)
				continue
			}
			if tc.wantAllow != "" {
				if got := resp.Header.Get("Allow"); got != tc.wantAllow {
					t.Errorf("%s: Allow %q, want %q", label, got, tc.wantAllow)
				}
			}
			if tc.wantCode != "" {
				if got := decodeEnvelope(t, label, resp.Body); got != tc.wantCode {
					t.Errorf("%s: envelope code %q, want %q", label, got, tc.wantCode)
				}
			}
			resp.Body.Close()
		}
	}
}

// TestV1ContractETag pins the ETag contract: head and pinned GETs carry
// version-derived ETags and If-None-Match answers 304.
func TestV1ContractETag(t *testing.T) {
	ts := contractServer(t)

	resp := doRaw(t, "GET", ts.URL+"/v1/rules/m", "", "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("ETag"); got != `"v2"` {
		t.Fatalf("head ETag %q, want %q", got, `"v2"`)
	}

	resp = doRaw(t, "GET", ts.URL+"/v1/rules/m?version=1", "", "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("ETag"); got != `"v1"` {
		t.Fatalf("pinned ETag %q, want %q", got, `"v1"`)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/rules/m?version=1", nil)
	req.Header.Set("If-None-Match", `"v1"`)
	got, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, got.Body)
	got.Body.Close()
	if got.StatusCode != http.StatusNotModified {
		t.Fatalf("pinned conditional GET: status %d, want 304", got.StatusCode)
	}
}

// batchLine is a superset decode target for NDJSON response lines.
type batchLine struct {
	Index    int              `json:"index"`
	Filled   []float64        `json:"filled"`
	Value    *float64         `json:"value"`
	Outliers []map[string]any `json:"outliers"`
	Error    *errorInfo       `json:"error"`
}

// readNDJSON decodes every response line, asserting the content type.
func readNDJSON(t *testing.T, resp *http.Response) []batchLine {
	t.Helper()
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ndjsonContentType {
		t.Fatalf("batch Content-Type %q, want %q", got, ndjsonContentType)
	}
	var lines []batchLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("malformed NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestV1ContractBatchNDJSON drives the NDJSON framing with a malformed
// line mid-batch: status stays 200, the bad row yields an error line in
// its slot, and every other row completes.
func TestV1ContractBatchNDJSON(t *testing.T) {
	ts := contractServer(t)
	body := `{"record":[3,0],"holes":[1]}
not json at all
{"record":[4,0],"holes":[1]}
{"record":[5,0],"holes":[9]}
`
	resp := doRaw(t, "POST", ts.URL+"/v1/rules/m/batch/fill", ndjsonContentType, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200", resp.StatusCode)
	}
	lines := readNDJSON(t, resp)
	if len(lines) != 4 {
		t.Fatalf("got %d result lines, want 4: %+v", len(lines), lines)
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d carries index %d: ordering broken", i, l.Index)
		}
	}
	if lines[0].Error != nil || len(lines[0].Filled) != 2 {
		t.Errorf("line 0: want filled record, got %+v", lines[0])
	}
	if lines[1].Error == nil || lines[1].Error.Code != CodeBadRequest {
		t.Errorf("line 1: want bad_request error for malformed JSON, got %+v", lines[1])
	}
	if lines[2].Error != nil {
		t.Errorf("line 2: row after malformed line failed: %+v", lines[2].Error)
	}
	if lines[3].Error == nil || lines[3].Error.Code != CodeBadRequest {
		t.Errorf("line 3: want bad_request error for bad hole, got %+v", lines[3])
	}
	// The recovered fill must agree with the ratio model: y = 2x.
	if got := lines[2].Filled[1]; got < 7.9 || got > 8.1 {
		t.Errorf("line 2 filled %g, want ~8", got)
	}
}

// TestV1ContractBatchArray drives the JSON-array framing across all
// three batch operations.
func TestV1ContractBatchArray(t *testing.T) {
	ts := contractServer(t)

	resp := doRaw(t, "POST", ts.URL+"/v1/rules/m/batch/fill", "application/json",
		`[{"record":[3,0],"holes":[1]},{"record":[4,0],"holes":[1]}]`)
	lines := readNDJSON(t, resp)
	if len(lines) != 2 || lines[0].Error != nil || lines[1].Error != nil {
		t.Fatalf("array batch fill: %+v", lines)
	}

	resp = doRaw(t, "POST", ts.URL+"/v1/rules/m/batch/forecast", "application/json",
		`[{"given":{"0":3},"target":1},{"given":{"1":4},"target":0}]`)
	lines = readNDJSON(t, resp)
	if len(lines) != 2 || lines[0].Value == nil || lines[1].Value == nil {
		t.Fatalf("array batch forecast: %+v", lines)
	}
	if v := *lines[0].Value; v < 5.9 || v > 6.1 {
		t.Errorf("forecast(x=3) = %g, want ~6", v)
	}

	resp = doRaw(t, "POST", ts.URL+"/v1/rules/m/batch/outliers", "application/json",
		`[{"record":[1,2]},{"record":[1,50]}]`)
	lines = readNDJSON(t, resp)
	if len(lines) != 2 {
		t.Fatalf("array batch outliers: %+v", lines)
	}
	for i, l := range lines {
		if l.Error != nil {
			t.Errorf("outlier row %d failed: %+v", i, l.Error)
		}
		if l.Outliers == nil {
			t.Errorf("outlier row %d: outliers field missing (must be [] not null)", i)
		}
	}

	// A terminally malformed array emits one error line and stops.
	resp = doRaw(t, "POST", ts.URL+"/v1/rules/m/batch/fill", "application/json",
		`{"not":"an array"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed array batch status %d, want 200 (framing fails per-row)", resp.StatusCode)
	}
	lines = readNDJSON(t, resp)
	if len(lines) != 1 || lines[0].Error == nil || lines[0].Error.Code != CodeBadRequest {
		t.Fatalf("malformed array framing: %+v", lines)
	}
}

// TestV1ContractBatchStreams proves results are flushed before the
// request body ends, on both full-duplex NDJSON routes: a raw HTTP/1.1
// client sends one chunked row, reads its result line while the request
// is still open, then sends the next row. (net/http's client buffers
// chunked request bodies, so this full-duplex exchange needs a
// hand-rolled socket.)
func TestV1ContractBatchStreams(t *testing.T) {
	cases := []struct {
		route, first, second string
		// check asserts the shape of the result line for row index.
		check func(t *testing.T, index int, line []byte)
	}{
		{
			route: "/v1/rules/m/batch/fill",
			first: `{"record":[3,0],"holes":[1]}`, second: `{"record":[4,0],"holes":[1]}`,
			check: func(t *testing.T, index int, line []byte) {
				var l batchLine
				if err := json.Unmarshal(line, &l); err != nil {
					t.Fatalf("streamed line %q: %v", line, err)
				}
				if l.Index != index || l.Error != nil || len(l.Filled) != 2 {
					t.Fatalf("streamed line %d: %+v", index, l)
				}
			},
		},
		{
			route: "/v1/rules/live/ingest",
			first: `[3,6]`, second: `{"row":[4,8]}`,
			check: func(t *testing.T, index int, line []byte) {
				var l ingestLine
				if err := json.Unmarshal(line, &l); err != nil {
					t.Fatalf("streamed line %q: %v", line, err)
				}
				if l.Index != index || l.Error != nil || l.Done != nil || l.Count != index+1 {
					t.Fatalf("streamed line %d: %+v", index, l)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.route, func(t *testing.T) {
			ts := contractServer(t)
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))

			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\n"+
				"Host: contract-test\r\nContent-Type: %s\r\nTransfer-Encoding: chunked\r\n\r\n",
				tc.route, ndjsonContentType)
			chunk := func(s string) {
				t.Helper()
				if _, err := fmt.Fprintf(conn, "%x\r\n%s\r\n", len(s), s); err != nil {
					t.Fatal(err)
				}
			}

			chunk(tc.first + "\n")
			br := bufio.NewReader(conn)
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("reading response headers mid-request: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200", resp.StatusCode)
			}
			lines := bufio.NewScanner(resp.Body)
			if !lines.Scan() {
				t.Fatalf("no result line streamed while request body still open: %v", lines.Err())
			}
			tc.check(t, 0, lines.Bytes())

			// Second row only goes out after the first result arrived:
			// the exchange is genuinely incremental.
			chunk(tc.second + "\n")
			fmt.Fprint(conn, "0\r\n\r\n") // terminal chunk: request body done
			if !lines.Scan() {
				t.Fatalf("second line missing: %v", lines.Err())
			}
			tc.check(t, 1, lines.Bytes())
			for lines.Scan() {
				var l ingestLine
				if err := json.Unmarshal(lines.Bytes(), &l); err != nil || l.Done == nil {
					t.Fatalf("unexpected extra line %q", lines.Text())
				}
			}
		})
	}
}

// TestV1ContractNDJSONFraming pins line framing on both NDJSON row
// routes: a last line without "\n", CRLF ends, and a line over the cap
// (one bad_request line ends the stream), that last also from a client
// that keeps sending after the answer. Every case runs on one server
// and one keep-alive client: a stream the server ends before its body
// does must leave the connection reusable and the server's error log
// empty.
func TestV1ContractNDJSONFraming(t *testing.T) {
	long := "[" + strings.Repeat("1,", maxBatchLineBytes/2) + "1]"
	errLog := &lockedBuffer{}
	ts := httptest.NewUnstartedServer(Handler(NewRegistry()))
	ts.Config.ErrorLog = log.New(errLog, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	mineModel(t, ts, "m")
	client := ts.Client()
	routes := []struct {
		path, row string
		ingest    bool
	}{
		{"/v1/rules/m/batch/fill", `{"record":[3,0],"holes":[1]}`, false},
		{"/v1/rules/live/ingest", `[3,6]`, true},
	}
	framings := []struct {
		label, body string
		okRows      int  // leading rows answered by a success line
		badLast     bool // then one bad_request line ends the stream
		keepOpen    bool // the client sends another row after that line
	}{
		{"no final newline", "%[1]s\n%[1]s", 2, false, false},
		{"CRLF", "%[1]s\r\n%[1]s\r\n\r\n%[1]s\r\n", 3, false, false},
		{"line over cap", "%[1]s\n" + long + "\n%[1]s\n", 1, true, false},
		{"line over cap, body kept open", "%[1]s\n" + long + "\n%[1]s\n", 1, true, true},
	}
	requests := 0
	for _, rt := range routes {
		for _, fr := range framings {
			t.Run(rt.path+"/"+fr.label, func(t *testing.T) {
				body := fmt.Sprintf(fr.body, rt.row)
				answered := make(chan struct{})
				var reqBody io.Reader = strings.NewReader(body)
				if fr.keepOpen {
					pr, pw := io.Pipe()
					reqBody = pr
					go func() {
						pw.Write([]byte(body))
						<-answered
						pw.Write([]byte(rt.row + "\n"))
						pw.Close()
					}()
				}
				defer func() {
					select {
					case <-answered:
					default:
						close(answered)
					}
				}()
				req, err := http.NewRequest("POST", ts.URL+rt.path, reqBody)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", ndjsonContentType)
				reused := false
				req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
					GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused },
				}))
				resp, err := client.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				if requests++; requests > 1 && !reused {
					t.Errorf("request %d opened a new connection: the last stream broke keep-alive", requests)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, want 200", resp.StatusCode)
				}
				if fr.keepOpen {
					// Read up to the bad_request line, and only then let
					// the client send more.
					br := bufio.NewReader(resp.Body)
					var head []byte
					for !strings.Contains(string(head), CodeBadRequest) {
						line, err := br.ReadBytes('\n')
						if err != nil {
							t.Fatalf("stream ended before its bad_request line: %v", err)
						}
						head = append(head, line...)
					}
					close(answered)
					resp.Body = struct {
						io.Reader
						io.Closer
					}{io.MultiReader(strings.NewReader(string(head)), br), resp.Body}
				}
				var lines []batchLine
				if rt.ingest {
					acks, done := readIngestLines(t, resp)
					for _, a := range acks {
						lines = append(lines, batchLine{Index: a.Index, Error: a.Error})
					}
					if done.Done.Rows != len(acks) || done.Done.Errors != len(acks)-fr.okRows {
						t.Fatalf("done summary %+v for %d row lines", *done.Done, len(acks))
					}
				} else {
					lines = readNDJSON(t, resp)
				}
				want := fr.okRows
				if fr.badLast {
					want++
				}
				if len(lines) != want {
					t.Fatalf("got %d row lines, want %d: %+v", len(lines), want, lines)
				}
				for i, l := range lines {
					if l.Index != i {
						t.Fatalf("line %d carries index %d", i, l.Index)
					}
					if i < fr.okRows && l.Error != nil {
						t.Fatalf("line %d: unexpected error %+v", i, l.Error)
					}
				}
				if last := lines[len(lines)-1]; fr.badLast && (last.Error == nil || last.Error.Code != CodeBadRequest) {
					t.Fatalf("oversized line: want bad_request in its slot, got %+v", last)
				}
			})
		}
	}
	ts.Close() // waits for every handler, so the log is complete
	if msg := errLog.String(); msg != "" {
		t.Fatalf("server error log:\n%s", msg)
	}
}
