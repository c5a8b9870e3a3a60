package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/obstest"
)

// newObsServer starts a test server whose HTTP metrics go to a fresh,
// isolated obs registry.
func newObsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	mreg := obs.NewRegistry()
	ts := httptest.NewServer(Handler(NewRegistry(), WithObs(mreg)))
	t.Cleanup(ts.Close)
	return ts, mreg
}

func do(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestMiddlewareCounts is the table-driven middleware test: each
// request must move exactly one request counter (route, method, status
// class) and the route's latency histogram.
func TestMiddlewareCounts(t *testing.T) {
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		route      string
		class      string
	}{
		{"healthz probe", "GET", "/healthz", "", 200, "/healthz", "2xx"},
		{"list models", "GET", "/v1/rules", "", 200, "/v1/rules", "2xx"},
		{"missing model", "GET", "/v1/rules/none", "", 404, "/v1/rules/{name}", "4xx"},
		{"bad mine body", "POST", "/v1/rules", "{not json", 400, "/v1/rules", "4xx"},
		{"delete missing", "DELETE", "/v1/rules/none", "", 404, "/v1/rules/{name}", "4xx"},
		{"fill on missing model", "POST", "/v1/rules/none/fill", "{}", 404, "/v1/rules/{name}/fill", "4xx"},
		{"wrong method on fill", "GET", "/v1/rules/x/fill", "", 405, "/v1/rules/{name}/fill", "4xx"},
		{"wrong method on model", "PATCH", "/v1/rules/x", "", 405, "/v1/rules/{name}", "4xx"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, mreg := newObsServer(t)
			resp := do(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			snap := mreg.Snapshot()
			ctrKey := obs.SampleKey("rr_http_requests_total", map[string]string{
				"route": tc.route, "method": tc.method, "status": tc.class,
			})
			if got := snap[ctrKey]; got != 1 {
				t.Errorf("%s = %v, want 1 (snapshot %v)", ctrKey, got, snap)
			}
			histKey := obs.SampleKey("rr_http_request_seconds_count",
				map[string]string{"route": tc.route})
			if got := snap[histKey]; got != 1 {
				t.Errorf("%s = %v, want 1", histKey, got)
			}
			if got := snap["rr_http_in_flight_requests"]; got != 0 {
				t.Errorf("in-flight after request = %v, want 0", got)
			}
		})
	}
}

// TestMethodNotAllowed checks the 405 contract: Allow header, JSON
// error envelope, and a warn-level log line.
func TestMethodNotAllowed(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	ts := httptest.NewServer(Handler(NewRegistry(), WithObs(obs.NewRegistry()), WithLogger(logger)))
	t.Cleanup(ts.Close)

	cases := []struct {
		method, path, allow string
	}{
		{"GET", "/v1/rules/x/fill", "POST"},
		{"DELETE", "/v1/rules/x/forecast", "POST"},
		{"PUT", "/v1/rules/x/whatif", "POST"},
		{"GET", "/v1/rules/x/outliers", "POST"},
		{"PATCH", "/v1/rules/x", "GET, PUT, DELETE"},
		{"PATCH", "/v1/rules", "GET, POST"},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		if err := jsonDecode(resp.Body, &body); err != nil {
			t.Errorf("%s %s: body not the JSON error envelope: %v", tc.method, tc.path, err)
		}
		if body.Error.Code != CodeMethodNotAllowed {
			t.Errorf("%s %s envelope code = %q, want %q", tc.method, tc.path, body.Error.Code, CodeMethodNotAllowed)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s status = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
	if !strings.Contains(logBuf.String(), "request rejected") {
		t.Errorf("405s were not logged at warn: %q", logBuf.String())
	}
}

func jsonDecode(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
		return fmt.Errorf("not a JSON object: %q", data)
	}
	return json.Unmarshal(data, v)
}

// TestHealthzProbe checks the liveness endpoint through an isolated
// metrics registry (the richer body assertions live in server_test.go).
func TestHealthzProbe(t *testing.T) {
	ts, mreg := newObsServer(t)
	resp := do(t, "GET", ts.URL+"/healthz", "")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	key := obs.SampleKey("rr_http_requests_total",
		map[string]string{"route": "/healthz", "method": "GET", "status": "2xx"})
	if got := mreg.Snapshot()[key]; got != 1 {
		t.Fatalf("healthz counter = %v, want 1", got)
	}
}

// TestMetricsExposition scrapes /metrics and validates the whole body
// is well-formed Prometheus text format with the expected families.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newObsServer(t)
	do(t, "GET", ts.URL+"/healthz", "")
	do(t, "GET", ts.URL+"/v1/rules/none", "")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("content type = %q, want %q", got, obs.ContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	obstest.ValidateExposition(t, body)
	for _, want := range []string{
		`rr_http_requests_total{route="/healthz",method="GET",status="2xx"} 1`,
		`rr_http_requests_total{route="/v1/rules/{name}",method="GET",status="4xx"} 1`,
		`rr_http_request_seconds_bucket{route="/healthz",le="+Inf"} 1`,
		"# TYPE rr_http_request_seconds histogram",
		"# TYPE rr_http_requests_total counter",
		"rr_http_in_flight_requests",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q in:\n%s", want, body)
		}
	}
}

// TestEndToEndMetrics is the acceptance flow: mine a model over HTTP,
// query it (fill, forecast, outliers), then scrape /metrics and assert
// the HTTP counters, miner phase histograms and op counters all moved.
// It uses the default obs registry because the miner records there.
func TestEndToEndMetrics(t *testing.T) {
	before := obs.Default().Snapshot()
	ts := httptest.NewServer(Handler(NewRegistry()))
	t.Cleanup(ts.Close)

	mine := do(t, "POST", ts.URL+"/v1/rules",
		`{"name":"sales","rows":[[1,2],[2,4.1],[3,5.9],[4,8.2],[5,9.8]]}`)
	if mine.StatusCode != 201 {
		t.Fatalf("mine status = %d", mine.StatusCode)
	}
	if got := do(t, "POST", ts.URL+"/v1/rules/sales/fill",
		`{"record":[4,0],"holes":[1]}`).StatusCode; got != 200 {
		t.Fatalf("fill status = %d", got)
	}
	if got := do(t, "POST", ts.URL+"/v1/rules/sales/forecast",
		`{"given":{"0":2.5},"target":1}`).StatusCode; got != 200 {
		t.Fatalf("forecast status = %d", got)
	}
	if got := do(t, "POST", ts.URL+"/v1/rules/sales/outliers",
		`{"rows":[[1,2],[2,40]]}`).StatusCode; got != 200 {
		t.Fatalf("outliers status = %d", got)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	obstest.ValidateExposition(t, body)

	after := obs.Default().Snapshot()
	moved := func(key string, by float64) {
		t.Helper()
		if delta := after[key] - before[key]; delta < by {
			t.Errorf("%s moved by %v, want >= %v", key, delta, by)
		}
	}
	moved(`rr_miner_phase_seconds_count{phase="scan"}`, 1)
	moved(`rr_miner_phase_seconds_count{phase="covariance"}`, 1)
	moved(`rr_miner_phase_seconds_count{phase="eigensolve"}`, 1)
	moved(`rr_miner_mines_total{result="ok"}`, 1)
	moved(`rr_miner_rows_total`, 5)
	moved(`rr_ops_total{op="fill",result="ok"}`, 1)
	moved(`rr_ops_total{op="forecast",result="ok"}`, 1)
	moved(`rr_ops_total{op="outliers",result="ok"}`, 1)
	moved(`rr_http_requests_total{method="POST",route="/v1/rules",status="2xx"}`, 1)
	moved(`rr_http_requests_total{method="POST",route="/v1/rules/{name}/fill",status="2xx"}`, 1)
	moved(`rr_http_request_seconds_count{route="/v1/rules/{name}/forecast"}`, 1)

	for _, want := range []string{
		"# TYPE rr_miner_phase_seconds histogram",
		`rr_miner_phase_seconds_bucket{phase="scan",le="+Inf"}`,
		`rr_ops_total{op="fill",result="ok"}`,
		"rr_miner_rows_per_second",
		"rr_http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestModelRegistryRace hammers the model Registry from many
// goroutines — the dedicated -race stress for the existing store.
func TestModelRegistryRace(t *testing.T) {
	miner, err := core.NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	x, err := matrix.FromRows([][]float64{{1, 2}, {2, 4}, {3, 6.1}})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", w%4)
			for i := 0; i < 500; i++ {
				reg.Put(context.Background(), name, rules)
				reg.Get(name)
				reg.Names()
				if i%10 == 0 {
					reg.DeleteContext(context.Background(), name)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMiddlewareConcurrentScrape drives 8 recording goroutines through
// live HTTP requests while 2 goroutines scrape /metrics — the -race
// stress for the middleware + registry pipeline.
func TestMiddlewareConcurrentScrape(t *testing.T) {
	ts, mreg := newObsServer(t)
	const (
		writers  = 8
		requests = 50
	)
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					return // server closing
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	snap := mreg.Snapshot()
	key := obs.SampleKey("rr_http_requests_total",
		map[string]string{"route": "/healthz", "method": "GET", "status": "2xx"})
	if got := snap[key]; got != writers*requests {
		t.Fatalf("%s = %v, want %d", key, got, writers*requests)
	}
}
