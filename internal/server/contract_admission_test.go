package server

// Admission contract: with WithAdmission configured, every protected
// route — derived from the same v1Routes table the mux mounts —
// answers 401 unauthorized (with a WWW-Authenticate challenge) to
// missing or unknown tokens and 403 forbidden to disabled tenants;
// non-stream routes answer 429 rate_limited with a Retry-After once a
// tenant's request bucket drains; streaming routes shed mid-stream
// with an error line in the row's slot and then terminate; and tenants
// cannot see — or 404-probe — each other's models.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ratiorules/internal/admission"
	"ratiorules/internal/obs"
	"ratiorules/internal/online"
)

// contractTenants gives acme and globex room to work, starves
// "limited" (burst-1 requests, burst-2 row buckets, 1ms shed wait, a
// refill rate that never recovers within a test), and disables
// "blocked".
const contractTenants = `{
  "tenants": [
    {"id": "acme", "token": "tok-acme"},
    {"id": "globex", "token": "tok-globex"},
    {"id": "limited", "token": "tok-limited",
     "limits": {"requests_per_second": 0.001, "request_burst": 1,
                "rows_per_second": 0.001, "row_burst": 2,
                "batch_rows_per_second": 0.001, "batch_row_burst": 2,
                "max_wait_ms": 1}},
    {"id": "blocked", "token": "tok-blocked", "disabled": true}
  ]
}`

// admissionServer builds a full server (online manager included, so
// the streaming routes work) behind an admission controller loaded
// from contractTenants.
func admissionServer(t *testing.T) *httptest.Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(contractTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	ctrl, err := admission.New(admission.Config{TenantsFile: path, Metrics: metrics})
	if err != nil {
		t.Fatalf("admission.New: %v", err)
	}
	reg := NewRegistry()
	mgr, err := online.NewManager(reg, online.Config{RepublishRows: 1 << 30, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mgr.Close() })
	ts := httptest.NewServer(Handler(reg,
		WithObs(metrics), WithOnline(mgr), WithAdmission(ctrl)))
	t.Cleanup(ts.Close)
	return ts
}

// authRaw is doRaw with a bearer token. Bodies are sent as JSON; the
// streaming tests override the content type themselves.
func authRaw(t *testing.T, method, url, token, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// authJSON performs a JSON request with a bearer token, discarding the
// body and returning the status.
func authStatus(t *testing.T, method, url, token, body string) int {
	t.Helper()
	resp := authRaw(t, method, url, token, body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// mineAs mines a model under a tenant's token.
func mineAs(t *testing.T, ts *httptest.Server, token, name, rows string) {
	t.Helper()
	resp := authRaw(t, "POST", ts.URL+"/v1/rules", token,
		`{"name":"`+name+`","rows":`+rows+`}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mine %s as %s = %d: %s", name, token, resp.StatusCode, body)
	}
}

// protectedPaths derives (method, path) pairs for every protected
// route from the route table, with {name} filled in — the same table
// the mux mounts, so a new route cannot dodge these assertions.
func protectedPaths(name string) [][2]string {
	var out [][2]string
	for _, rt := range v1Routes {
		if !rt.protected {
			continue
		}
		out = append(out, [2]string{rt.method, strings.ReplaceAll(rt.path, "{name}", name)})
	}
	return out
}

// TestV1ContractAdmissionAuth walks every protected route with no
// token, an unknown token, and a disabled tenant's token.
func TestV1ContractAdmissionAuth(t *testing.T) {
	ts := admissionServer(t)
	routes := protectedPaths("m")
	if len(routes) < 19 {
		t.Fatalf("route table lists %d protected routes, expected the whole /v1/rules surface", len(routes))
	}
	for _, mp := range routes {
		method, path := mp[0], mp[1]

		resp := authRaw(t, method, ts.URL+path, "", "")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s anonymous: status %d, want 401", method, path, resp.StatusCode)
		}
		if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
			t.Errorf("%s %s: WWW-Authenticate %q, want a Bearer challenge", method, path, got)
		}
		if code := decodeEnvelope(t, method+" "+path, resp.Body); code != CodeUnauthorized {
			t.Errorf("%s %s anonymous: code %q, want %q", method, path, code, CodeUnauthorized)
		}
		resp.Body.Close()

		if got := authStatus(t, method, ts.URL+path, "tok-unknown", ""); got != http.StatusUnauthorized {
			t.Errorf("%s %s unknown token: status %d, want 401", method, path, got)
		}

		resp = authRaw(t, method, ts.URL+path, "tok-blocked", "")
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s %s disabled tenant: status %d, want 403", method, path, resp.StatusCode)
		} else if code := decodeEnvelope(t, method+" "+path, resp.Body); code != CodeForbidden {
			t.Errorf("%s %s disabled tenant: code %q, want %q", method, path, code, CodeForbidden)
		}
		resp.Body.Close()
	}

	// Probes, metrics and debug stay tokenless.
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/admission"} {
		if got := authStatus(t, "GET", ts.URL+path, "", ""); got != 200 {
			t.Errorf("GET %s without token = %d, want 200", path, got)
		}
	}
}

// TestV1ContractAdmissionRateLimit drains the "limited" tenant's
// one-request bucket, then requires 429 rate_limited + Retry-After on
// every protected non-stream route. Streaming routes are admitted
// request-free (their rows are metered instead — see the shed tests).
func TestV1ContractAdmissionRateLimit(t *testing.T) {
	ts := admissionServer(t)
	// Warm-up drains the single token (list answers 200 regardless of
	// stored models).
	if got := authStatus(t, "GET", ts.URL+"/v1/rules", "tok-limited", ""); got != 200 {
		t.Fatalf("warm-up list = %d, want 200", got)
	}
	for _, rt := range v1Routes {
		if !rt.protected || rt.stream {
			continue
		}
		path := strings.ReplaceAll(rt.path, "{name}", "m")
		resp := authRaw(t, rt.method, ts.URL+path, "tok-limited", "")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s %s: status %d, want 429", rt.method, path, resp.StatusCode)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s %s: 429 without Retry-After", rt.method, path)
		}
		if code := decodeEnvelope(t, rt.method+" "+path, resp.Body); code != CodeRateLimited {
			t.Errorf("%s %s: code %q, want %q", rt.method, path, code, CodeRateLimited)
		}
		resp.Body.Close()
	}
}

// TestV1ContractAdmissionIsolation pins cross-tenant invisibility:
// another tenant's model answers plain 404 not_found everywhere (never
// 403 — existence is not leaked), same-named models coexist, and list
// shows each tenant only its own, unprefixed.
func TestV1ContractAdmissionIsolation(t *testing.T) {
	ts := admissionServer(t)
	mineAs(t, ts, "tok-acme", "m", `[[1,2],[2,4],[3,6],[4,8],[5,10]]`)

	probes := []struct {
		method, path, body string
	}{
		{"GET", "/v1/rules/m", ""},
		{"GET", "/v1/rules/m/versions", ""},
		{"GET", "/v1/rules/m/health", ""},
		{"GET", "/v1/rules/m/stream", ""},
		{"DELETE", "/v1/rules/m", ""},
		{"DELETE", "/v1/rules/m/stream", ""},
		{"POST", "/v1/rules/m/rollback", `{"version":1}`},
		{"POST", "/v1/rules/m/fill", `{"record":[3,0],"holes":[1]}`},
		{"POST", "/v1/rules/m/forecast", `{"given":{"0":3},"target":1}`},
	}
	for _, p := range probes {
		resp := authRaw(t, p.method, ts.URL+p.path, "tok-globex", p.body)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s as globex: status %d, want 404", p.method, p.path, resp.StatusCode)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		if code := decodeEnvelope(t, p.method+" "+p.path, resp.Body); code != CodeNotFound {
			t.Errorf("%s %s as globex: code %q, want %q", p.method, p.path, code, CodeNotFound)
		}
		resp.Body.Close()
	}

	// Same name, different tenants: independent models.
	mineAs(t, ts, "tok-globex", "m", `[[1,3],[2,6],[3,9],[4,12],[5,15]]`)
	for _, token := range []string{"tok-acme", "tok-globex"} {
		resp := authRaw(t, "GET", ts.URL+"/v1/rules", token, "")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || strings.Count(string(body), `"name":"m"`) != 1 {
			t.Errorf("list as %s = %d %q, want exactly one unprefixed \"m\"", token, resp.StatusCode, body)
		}
		if strings.Contains(string(body), "/") {
			t.Errorf("list as %s leaks scoped keys: %q", token, body)
		}
	}

	// globex deleting its own "m" must not touch acme's.
	if got := authStatus(t, "DELETE", ts.URL+"/v1/rules/m", "tok-globex", ""); got != http.StatusNoContent {
		t.Fatalf("globex delete own model = %d, want 204", got)
	}
	if got := authStatus(t, "GET", ts.URL+"/v1/rules/m", "tok-acme", ""); got != 200 {
		t.Fatalf("acme model after globex delete = %d, want 200", got)
	}

	// Tenant-scoped addressing cannot be forged through the path: a
	// name containing "/" (reachable via %2F) answers 404, and mining
	// one answers 400.
	if got := authStatus(t, "GET", ts.URL+"/v1/rules/acme%2Fm", "tok-globex", ""); got != http.StatusNotFound {
		t.Fatalf("escaped scoped path = %d, want 404", got)
	}
	resp := authRaw(t, "POST", ts.URL+"/v1/rules", "tok-globex", `{"name":"acme/m","rows":[[1,2],[2,4]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mine with slashed name = %d, want 400", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestV1ContractAdmissionIngestShed pins the mid-stream shed contract
// (and the held-connection regression): once the row bucket drains the
// stream gets one rate_limited error line in the offending row's slot,
// the done summary, and nothing else — the server does not keep
// reading and refusing rows one by one.
func TestV1ContractAdmissionIngestShed(t *testing.T) {
	ts := admissionServer(t)
	body := strings.Repeat("[1, 2]\n", 6)
	req, err := http.NewRequest("POST", ts.URL+"/v1/rules/live/ingest", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok-limited")
	req.Header.Set("Content-Type", ndjsonContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d, want 200 (shed is per-row)", resp.StatusCode)
	}
	lines, done := readIngestLines(t, resp)
	// row_burst 2: rows 0 and 1 ack, row 2 sheds, rows 3..5 never
	// answered.
	if len(lines) != 3 {
		t.Fatalf("got %d row lines, want 3 (2 acks + 1 shed): %+v", len(lines), lines)
	}
	for i := 0; i < 2; i++ {
		if lines[i].Error != nil || lines[i].Count != i+1 {
			t.Errorf("line %d: want ack with count %d, got %+v", i, i+1, lines[i])
		}
	}
	shedLine := lines[2]
	if shedLine.Error == nil || shedLine.Error.Code != CodeRateLimited {
		t.Fatalf("line 2: want rate_limited error, got %+v", shedLine)
	}
	if shedLine.Index != 2 {
		t.Errorf("shed line index %d, want 2", shedLine.Index)
	}
	if done.Done.Rows != 3 || done.Done.Accepted != 2 || done.Done.Errors != 1 {
		t.Fatalf("done summary = %+v, want rows 3 accepted 2 errors 1", *done.Done)
	}
}

// TestV1ContractAdmissionShedClosesSlowClient is the held-connection
// regression against a live client: the request body is a pipe the
// client never closes, trickling rows past the row bucket. Once the
// shed fires the server must emit the error + done lines and
// terminate the response anyway — before the fix, each refused row
// kept extending the rolling write deadline, so a rate-limited client
// could hold the connection (and its quota slot) open indefinitely.
// The response must end whole (readIngestLines reads it to a clean
// EOF) whether the client floods or trickles, i.e. whether the server
// stops reading the rest of the body at its byte bound or at its
// wind-down deadline.
func TestV1ContractAdmissionShedClosesSlowClient(t *testing.T) {
	for _, tc := range []struct {
		label string
		pause time.Duration // between rows once the bucket has run dry
	}{{"flooding", 0}, {"trickling", 50 * time.Millisecond}} {
		t.Run(tc.label, func(t *testing.T) {
			ts := admissionServer(t)
			pr, pw := io.Pipe()
			req, err := http.NewRequest("POST", ts.URL+"/v1/rules/live/ingest", pr)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Authorization", "Bearer tok-limited")
			req.Header.Set("Content-Type", ndjsonContentType)
			// Trickle rows from a goroutine that NEVER closes the pipe (started
			// before Do: response headers only flush once rows flow); once the
			// server stops reading (stream terminated), writes start failing
			// and the goroutine parks until cleanup.
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				for i := 0; ; i++ {
					select {
					case <-stop:
						pw.Close()
						return
					default:
					}
					if _, err := pw.Write([]byte("[1, 2]\n")); err != nil {
						<-stop
						pw.Close()
						return
					}
					if i > 2 {
						time.Sleep(tc.pause)
					}
				}
			}()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			// readIngestLines consumes the response to EOF: if the server kept
			// the stream open refusing rows forever, this would hang until the
			// test deadline instead of returning the 3-line shed contract.
			type result struct {
				lines []ingestLine
				done  ingestLine
			}
			got := make(chan result, 1)
			go func() {
				lines, done := readIngestLines(t, resp)
				got <- result{lines, done}
			}()
			select {
			case r := <-got:
				if len(r.lines) != 3 {
					t.Fatalf("got %d row lines, want 3 (2 acks + 1 shed): %+v", len(r.lines), r.lines)
				}
				if r.lines[2].Error == nil || r.lines[2].Error.Code != CodeRateLimited {
					t.Fatalf("line 2: want rate_limited error, got %+v", r.lines[2])
				}
				if r.done.Done.Accepted != 2 || r.done.Done.Errors != 1 {
					t.Fatalf("done summary = %+v, want accepted 2 errors 1", *r.done.Done)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("shed did not terminate the stream: response still open with the client body unclosed")
			}
		})
	}
}

// TestV1ContractAdmissionBatchShed is the same contract on the batch
// inference path: the batch row bucket sheds with an error line in the
// row's slot and the stream ends there.
func TestV1ContractAdmissionBatchShed(t *testing.T) {
	ts := admissionServer(t)
	mineAs(t, ts, "tok-acme", "m", `[[1,2],[2,4],[3,6],[4,8],[5,10]]`)
	// "limited" needs its own model: mine one slips under row limits
	// (mining is request-metered, not row-metered).
	mineAs(t, ts, "tok-limited", "m", `[[1,2],[2,4],[3,6],[4,8],[5,10]]`)

	body := strings.Repeat(`{"record":[3,0],"holes":[1]}`+"\n", 6)
	req, err := http.NewRequest("POST", ts.URL+"/v1/rules/m/batch/fill", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok-limited")
	req.Header.Set("Content-Type", ndjsonContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200", resp.StatusCode)
	}
	lines := readNDJSON(t, resp)
	// batch_row_burst 2: rows 0 and 1 answer, row 2 sheds, stream ends.
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (2 results + 1 shed): %+v", len(lines), lines)
	}
	if lines[0].Error != nil || lines[1].Error != nil {
		t.Fatalf("in-quota rows failed: %+v", lines[:2])
	}
	if lines[2].Error == nil || lines[2].Error.Code != CodeRateLimited {
		t.Fatalf("line 2: want rate_limited error, got %+v", lines[2])
	}
}

// TestV1ContractAdmissionQuota pins the 429 over_quota envelope: a
// tenant with max_in_flight 1 and no waiting room sheds the second
// concurrent request with over_quota and a Retry-After.
func TestV1ContractAdmissionQuota(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{
		"tenants": [{"id": "q", "token": "tok-q",
			"limits": {"max_in_flight": 1, "max_wait_ms": 1}}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	ctrl, err := admission.New(admission.Config{TenantsFile: path, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	mgr, err := online.NewManager(reg, online.Config{RepublishRows: 1 << 30, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mgr.Close() })

	ts := httptest.NewServer(Handler(reg, WithObs(metrics), WithOnline(mgr), WithAdmission(ctrl)))
	t.Cleanup(ts.Close)

	// Hold the tenant's single slot directly through the controller, as
	// a long-running in-flight request would.
	tn, err := ctrl.Authenticate("tok-q")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ctrl.AdmitRequest(context.Background(), tn, false)
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	defer rel()

	resp := authRaw(t, "GET", ts.URL+"/v1/rules", "tok-q", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second concurrent request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("over_quota 429 without Retry-After")
	}
	if code := decodeEnvelope(t, "quota", resp.Body); code != CodeOverQuota {
		t.Errorf("code %q, want %q", code, CodeOverQuota)
	}
	resp.Body.Close()
}
