package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/store"
)

// newTestServer returns a started test server plus a JSON helper.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(Handler(NewRegistry()))
	t.Cleanup(ts.Close)
	return ts
}

// doJSON posts (or gets) JSON and decodes the response into out (when
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, in, out any) int {
	t.Helper()
	var body *bytes.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(data)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// ratioRows builds y = 2x training rows.
func ratioRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		v := 1 + float64(i)*0.1
		rows[i] = []float64{v, 2 * v}
	}
	return rows
}

func mineModel(t *testing.T, ts *httptest.Server, name string) modelSummary {
	t.Helper()
	var sum modelSummary
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/rules", mineRequest{
		Name:  name,
		Attrs: []string{"bread", "butter"},
		Rows:  ratioRows(50),
	}, &sum)
	if status != http.StatusCreated {
		t.Fatalf("mine status = %d", status)
	}
	return sum
}

func TestMineAndSummary(t *testing.T) {
	ts := newTestServer(t)
	sum := mineModel(t, ts, "sales")
	if sum.Name != "sales" || sum.M != 2 || sum.TrainedRows != 50 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.K < 1 || sum.EnergyCovered < 0.85 {
		t.Errorf("mined model too weak: %+v", sum)
	}
}

func TestMineValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no name", mineRequest{Rows: ratioRows(5)}, http.StatusBadRequest},
		{"no rows", mineRequest{Name: "x"}, http.StatusBadRequest},
		{"ragged rows", mineRequest{Name: "x", Rows: [][]float64{{1}, {1, 2}}}, http.StatusBadRequest},
		{"bad energy", mineRequest{Name: "x", Rows: ratioRows(5), Energy: 3}, http.StatusBadRequest},
		{"not json", "zzz", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules", tc.body, nil); got != tc.want {
				t.Errorf("status = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestListAndDelete(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "a")
	mineModel(t, ts, "b")
	var models []modelSummary
	if got := doJSON(t, http.MethodGet, ts.URL+"/v1/rules", nil, &models); got != http.StatusOK {
		t.Fatalf("list status = %d", got)
	}
	if len(models) != 2 || models[0].Name != "a" || models[1].Name != "b" {
		t.Errorf("list = %+v", models)
	}
	if got := doJSON(t, http.MethodDelete, ts.URL+"/v1/rules/a", nil, nil); got != http.StatusNoContent {
		t.Errorf("delete status = %d", got)
	}
	if got := doJSON(t, http.MethodDelete, ts.URL+"/v1/rules/a", nil, nil); got != http.StatusNotFound {
		t.Errorf("double delete status = %d", got)
	}
}

func TestGetRulesJSON(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")
	resp, err := http.Get(ts.URL + "/v1/rules/sales")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc struct {
		Means   []float64   `json:"means"`
		Vectors [][]float64 `json:"vectors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Means) != 2 || len(doc.Vectors) != 2 {
		t.Errorf("rules doc = %+v", doc)
	}
}

func TestFillEndpoint(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")
	var out fillResponse
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/fill", fillRequest{
		Record: []float64{4, 0},
		Holes:  []int{1},
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if math.Abs(out.Filled[1]-8) > 0.1 {
		t.Errorf("filled = %v, want ≈ [4 8]", out.Filled)
	}
}

func TestFillErrors(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/nope/fill",
		fillRequest{Record: []float64{1, 2}}, nil); got != http.StatusNotFound {
		t.Errorf("unknown model status = %d", got)
	}
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/fill",
		fillRequest{Record: []float64{1}, Holes: []int{0}}, nil); got != http.StatusBadRequest {
		t.Errorf("bad width status = %d", got)
	}
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/fill",
		fillRequest{Record: []float64{1, 2}, Holes: []int{9}}, nil); got != http.StatusBadRequest {
		t.Errorf("bad hole status = %d", got)
	}
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/fill",
		"garbage", nil); got != http.StatusBadRequest {
		t.Errorf("garbage body status = %d", got)
	}
}

func TestForecastEndpoint(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")
	var out forecastResponse
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/forecast", forecastRequest{
		Given:  map[int]float64{0: 3},
		Target: 1,
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if math.Abs(out.Value-6) > 0.1 {
		t.Errorf("forecast = %v, want ≈ 6", out.Value)
	}
	// Target already given.
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/forecast", forecastRequest{
		Given:  map[int]float64{0: 3},
		Target: 0,
	}, nil); got != http.StatusBadRequest {
		t.Errorf("bad target status = %d", got)
	}
}

func TestOutliersEndpoint(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")
	rows := ratioRows(30)
	rows[10][1] = 500 // gross outlier
	var out outliersResponse
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/outliers", outliersRequest{
		Rows:  rows,
		Sigma: 3,
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(out.Outliers) == 0 || out.Outliers[0].Row != 10 {
		t.Errorf("outliers = %+v, want row 10 first", out.Outliers)
	}
	// Clean rows: empty array, not null.
	status = doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/outliers", outliersRequest{
		Rows:  ratioRows(10),
		Sigma: 50,
	}, &out)
	if status != http.StatusOK || out.Outliers == nil {
		t.Errorf("clean rows: status %d, outliers %v", status, out.Outliers)
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/rules/sales/fill")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET on POST route status = %d", resp.StatusCode)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	rules := mineTestRules(t)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("m%d", g)
				if _, err := reg.Put(context.Background(), name, rules); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				reg.Get(name)
				reg.Names()
				if _, err := reg.DeleteContext(context.Background(), name); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// mineTestRules mines a small in-process rule set for registry tests.
func mineTestRules(t testing.TB) *core.Rules {
	t.Helper()
	x, err := matrix.FromRows(ratioRows(20))
	if err != nil {
		t.Fatal(err)
	}
	miner, err := core.NewMiner()
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func TestWhatIfEndpoint(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")
	var out whatIfResponse
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/whatif", whatIfRequest{
		Given: map[int]float64{0: 10},
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if math.Abs(out.Record[1]-20) > 0.2 {
		t.Errorf("what-if record = %v, want ≈ [10 20]", out.Record)
	}
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/whatif",
		whatIfRequest{}, nil); got != http.StatusBadRequest {
		t.Errorf("empty scenario status = %d", got)
	}
}

func TestProjectEndpoint(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")
	var out projectResponse
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/project", projectRequest{
		Rows: ratioRows(5),
		Dims: 1,
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(out.Coords) != 5 || len(out.Coords[0]) != 1 {
		t.Errorf("coords shape = %dx%d, want 5x1", len(out.Coords), len(out.Coords[0]))
	}
	// Dims beyond the retained rules must 400.
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/project", projectRequest{
		Rows: ratioRows(3),
		Dims: 99,
	}, nil); got != http.StatusBadRequest {
		t.Errorf("bad dims status = %d", got)
	}
}

func TestPutModelRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")
	// Export the model, install it under a new name, then query the copy.
	resp, err := http.Get(ts.URL + "/v1/rules/sales")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/rules/copy", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("put status = %d", putResp.StatusCode)
	}
	var out fillResponse
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/copy/fill", fillRequest{
		Record: []float64{4, 0},
		Holes:  []int{1},
	}, &out)
	if status != http.StatusOK || math.Abs(out.Filled[1]-8) > 0.1 {
		t.Errorf("copy fill: status %d, filled %v", status, out.Filled)
	}
}

func TestPutModelRejectsGarbage(t *testing.T) {
	ts := newTestServer(t)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/rules/x", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "a")
	// Liveness is pure: no dependency state, just "process up".
	var out map[string]any
	if got := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &out); got != http.StatusOK {
		t.Fatalf("status = %d", got)
	}
	if len(out) != 1 || out["status"] != "ok" {
		t.Errorf("health = %v", out)
	}
	// Readiness carries the dependency picture.
	var ready map[string]any
	if got := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &ready); got != http.StatusOK {
		t.Fatalf("readyz status = %d", got)
	}
	if ready["status"] != "ready" || ready["models"] != float64(1) || ready["firing_alerts"] != float64(0) {
		t.Errorf("readyz = %v", ready)
	}
}

// reMineModel mines a replacement model (different slope) under an
// existing name, creating the next version.
func reMineModel(t *testing.T, ts *httptest.Server, name string) modelSummary {
	t.Helper()
	rows := make([][]float64, 50)
	for i := range rows {
		v := 1 + float64(i)*0.1
		rows[i] = []float64{v, 3 * v}
	}
	var sum modelSummary
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/rules", mineRequest{
		Name: name, Attrs: []string{"bread", "butter"}, Rows: rows,
	}, &sum)
	if status != http.StatusCreated {
		t.Fatalf("re-mine status = %d", status)
	}
	return sum
}

func TestMineReportsVersion(t *testing.T) {
	ts := newTestServer(t)
	if sum := mineModel(t, ts, "sales"); sum.Version != 1 {
		t.Errorf("first mine version = %d, want 1", sum.Version)
	}
	if sum := reMineModel(t, ts, "sales"); sum.Version != 2 {
		t.Errorf("second mine version = %d, want 2", sum.Version)
	}
}

func TestETagConditionalGet(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")

	resp, err := http.Get(ts.URL + "/v1/rules/sales")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag != `"v1"` {
		t.Fatalf("GET: status %d, ETag %q; want 200, \"v1\"", resp.StatusCode, etag)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/rules/sales", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional GET: status %d, %d body bytes; want 304 and empty", resp.StatusCode, len(body))
	}

	// A new version invalidates the cached ETag.
	reMineModel(t, ts, "sales")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"v2"` {
		t.Fatalf("stale-ETag GET: status %d, ETag %q; want 200, \"v2\"",
			resp.StatusCode, resp.Header.Get("ETag"))
	}

	// Wildcard and weak validators match too.
	req.Header.Set("If-None-Match", `W/"v2", "zzz"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("weak-validator GET: status %d, want 304", resp.StatusCode)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	reg := NewRegistry()
	ts := httptest.NewServer(Handler(reg, WithMaxBodyBytes(256)))
	t.Cleanup(ts.Close)

	big := mineRequest{Name: "x", Rows: ratioRows(500)}
	var errBody errorBody
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules", big, &errBody); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized mine status = %d, want 413", got)
	}
	if !strings.Contains(errBody.Error.Message, "256") {
		t.Errorf("413 envelope missing the limit: %q", errBody.Error.Message)
	}
	if errBody.Error.Code != CodeBodyTooLarge {
		t.Errorf("413 envelope code = %q, want %q", errBody.Error.Code, CodeBodyTooLarge)
	}
	// The cap applies to PUT's streaming Load path as well.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/rules/x",
		bytes.NewReader(bytes.Repeat([]byte(" "), 1024)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized put status = %d, want 413", resp.StatusCode)
	}
	// Small requests still pass.
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/x/fill",
		fillRequest{Record: []float64{1, 2}}, nil); got != http.StatusNotFound {
		t.Errorf("small body under cap status = %d, want 404 (no model)", got)
	}
}

func TestVersionsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")
	reMineModel(t, ts, "sales")

	var out versionsResponse
	if got := doJSON(t, http.MethodGet, ts.URL+"/v1/rules/sales/versions", nil, &out); got != http.StatusOK {
		t.Fatalf("versions status = %d", got)
	}
	if out.Name != "sales" || out.Head != 2 || len(out.Versions) != 2 {
		t.Fatalf("versions = %+v", out)
	}
	if out.Versions[0].Version != 1 || out.Versions[0].Head ||
		out.Versions[1].Version != 2 || !out.Versions[1].Head {
		t.Errorf("version flags wrong: %+v", out.Versions)
	}
	if got := doJSON(t, http.MethodGet, ts.URL+"/v1/rules/nope/versions", nil, nil); got != http.StatusNotFound {
		t.Errorf("unknown model versions status = %d", got)
	}
}

func TestRollbackEndpoint(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "sales")   // v1: butter = 2×bread
	reMineModel(t, ts, "sales") // v2: butter = 3×bread

	var sum modelSummary
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/rollback",
		rollbackRequest{Version: 1}, &sum); got != http.StatusOK {
		t.Fatalf("rollback status = %d", got)
	}
	if sum.Version != 3 {
		t.Errorf("rollback head = v%d, want v3", sum.Version)
	}
	// The head must now behave like v1 again.
	var out forecastResponse
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/forecast", forecastRequest{
		Given: map[int]float64{0: 3}, Target: 1,
	}, &out); got != http.StatusOK {
		t.Fatalf("forecast after rollback status = %d", got)
	}
	if math.Abs(out.Value-6) > 0.2 {
		t.Errorf("forecast after rollback = %v, want ≈ 6 (v1 behavior)", out.Value)
	}

	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/rollback",
		rollbackRequest{Version: 42}, nil); got != http.StatusNotFound {
		t.Errorf("rollback to unknown version status = %d", got)
	}
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/nope/rollback",
		rollbackRequest{Version: 1}, nil); got != http.StatusNotFound {
		t.Errorf("rollback of unknown model status = %d", got)
	}
	if got := doJSON(t, http.MethodPost, ts.URL+"/v1/rules/sales/rollback",
		rollbackRequest{}, nil); got != http.StatusBadRequest {
		t.Errorf("rollback without version status = %d", got)
	}
}

// TestDurableRegistryRestart proves the registry façade over a durable
// store round-trips through a cold reopen with history intact.
func TestDurableRegistryRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(NewRegistryWithStore(st)))
	mineModel(t, ts, "sales")
	reMineModel(t, ts, "sales")
	resp, err := http.Get(ts.URL + "/v1/rules/sales")
	if err != nil {
		t.Fatal(err)
	}
	before, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts2 := httptest.NewServer(Handler(NewRegistryWithStore(st2)))
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/v1/rules/sales")
	if err != nil {
		t.Fatal(err)
	}
	after, _ := io.ReadAll(resp.Body)
	etag := resp.Header.Get("ETag")
	resp.Body.Close()
	if !bytes.Equal(before, after) {
		t.Error("served Rules JSON changed across restart")
	}
	if etag != `"v2"` {
		t.Errorf("ETag after restart = %q, want \"v2\"", etag)
	}
	var vers versionsResponse
	if got := doJSON(t, http.MethodGet, ts2.URL+"/v1/rules/sales/versions", nil, &vers); got != http.StatusOK {
		t.Fatalf("versions after restart status = %d", got)
	}
	if vers.Head != 2 || len(vers.Versions) != 2 {
		t.Errorf("history after restart = %+v", vers)
	}
}
