package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ratiorules/internal/obs"
)

// startServe runs the server on ephemeral ports and returns the bound
// addresses plus a shutdown func that cancels and waits for run.
func startServe(t *testing.T, args ...string) (addrs map[string]string, shutdown func() error) {
	t.Helper()
	addrCh := make(chan [2]string, 4)
	notifyListening = func(name, addr string) { addrCh <- [2]string{name, addr} }
	t.Cleanup(func() { notifyListening = nil })

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, args) }()

	addrs = make(map[string]string)
	wantListeners := 1
	for _, a := range args {
		if strings.Contains(a, "debug-addr") {
			wantListeners = 2
		}
	}
	for len(addrs) < wantListeners {
		select {
		case na := <-addrCh:
			addrs[na[0]] = na[1]
		case err := <-errCh:
			t.Fatalf("run exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for listeners")
		}
	}
	return addrs, func() error {
		cancel()
		select {
		case err := <-errCh:
			return err
		case <-time.After(drainTimeout + 5*time.Second):
			t.Fatal("run did not return after cancel")
			return nil
		}
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestGracefulShutdown boots the full server, checks it serves, then
// cancels the signal context and expects a clean drain.
func TestGracefulShutdown(t *testing.T) {
	addrs, shutdown := startServe(t, "-addr", "127.0.0.1:0")
	base := "http://" + addrs["main"]
	if code, _ := get(t, base+"/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if code, body := get(t, base+"/metrics"); code != 200 || !strings.Contains(body, "rr_http_requests_total") {
		t.Fatalf("metrics = %d, body %q", code, body)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The socket must actually be released.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

// TestDebugListener checks the opt-in pprof side listener serves the
// index on its own port and not on the API port.
func TestDebugListener(t *testing.T) {
	addrs, shutdown := startServe(t, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	if code, body := get(t, "http://"+addrs["debug"]+"/debug/pprof/"); code != 200 ||
		!strings.Contains(body, "profile") {
		t.Fatalf("pprof index = %d, body %.80q", code, body)
	}
	if code, _ := get(t, "http://"+addrs["main"]+"/debug/pprof/"); code == 200 {
		t.Fatal("pprof exposed on the public API listener")
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}); err == nil {
		t.Error("bad addr accepted")
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-debug-addr", "256.0.0.1:bad"}); err == nil {
		t.Error("bad debug addr accepted")
	}
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func putBody(t *testing.T, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// mustJSONEqual decodes both documents and compares them structurally.
func mustJSONEqual(t *testing.T, label, a, b string) {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal([]byte(a), &va); err != nil {
		t.Fatalf("%s: first doc: %v", label, err)
	}
	if err := json.Unmarshal([]byte(b), &vb); err != nil {
		t.Fatalf("%s: second doc: %v", label, err)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Errorf("%s: documents differ\n  before: %.200s\n  after:  %.200s", label, a, b)
	}
}

// TestKillRecoverRoundTrip is the persistence acceptance check: mine
// models over HTTP into a -data-dir, restart the whole server cold —
// with a torn final WAL record injected, as a crash mid-append would
// leave — and require identical served Rules JSON, intact version
// history, working rollback, and nonzero store metrics.
func TestKillRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Boot #1: mine two models, re-install one (making a v2).
	addrs, shutdown := startServe(t, "-addr", "127.0.0.1:0", "-data-dir", dir)
	base := "http://" + addrs["main"]
	if code, body := postJSON(t, base+"/v1/rules",
		`{"name":"a","rows":[[1,2],[2,4],[3,6],[4,8],[5,10]]}`); code != 201 {
		t.Fatalf("mine a = %d: %s", code, body)
	}
	if code, body := postJSON(t, base+"/v1/rules",
		`{"name":"b","rows":[[1,3],[2,6],[3,9],[4,12],[5,15]]}`); code != 201 {
		t.Fatalf("mine b = %d: %s", code, body)
	}
	_, rulesA := get(t, base+"/v1/rules/a")
	if code := putBody(t, base+"/v1/rules/a", rulesA); code != 200 {
		t.Fatalf("re-install a = %d", code)
	}
	codeA, wantA := get(t, base+"/v1/rules/a")
	codeB, wantB := get(t, base+"/v1/rules/b")
	if codeA != 200 || codeB != 200 {
		t.Fatalf("pre-restart GETs: %d, %d", codeA, codeB)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown #1: %v", err)
	}

	// Crash injection: a torn record at the WAL tail (a length header
	// promising more payload than was ever written).
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Boot #2: cold recovery must truncate the torn tail and serve the
	// exact same models. The torn-record counter lives on the
	// process-wide registry, so earlier runs in this process may have
	// moved it already: boot #2 must add exactly one.
	tornBefore := obs.Default().Snapshot()["rr_store_torn_records_total"]
	addrs, shutdown = startServe(t, "-addr", "127.0.0.1:0", "-data-dir", dir)
	base = "http://" + addrs["main"]
	codeA, gotA := get(t, base+"/v1/rules/a")
	codeB, gotB := get(t, base+"/v1/rules/b")
	if codeA != 200 || codeB != 200 {
		t.Fatalf("post-restart GETs: %d, %d", codeA, codeB)
	}
	mustJSONEqual(t, "model a", wantA, gotA)
	mustJSONEqual(t, "model b", wantB, gotB)

	// Version history survives: a has v1+v2, b has v1.
	var vers struct {
		Head     int `json:"head"`
		Versions []struct {
			Version int `json:"version"`
		} `json:"versions"`
	}
	_, versBody := get(t, base+"/v1/rules/a/versions")
	if err := json.Unmarshal([]byte(versBody), &vers); err != nil {
		t.Fatalf("versions decode: %v (%s)", err, versBody)
	}
	if vers.Head != 2 || len(vers.Versions) != 2 {
		t.Fatalf("recovered history = %+v, want head 2 with 2 versions", vers)
	}

	// Rollback works against the recovered store.
	if code, body := postJSON(t, base+"/v1/rules/a/rollback", `{"version":1}`); code != 200 ||
		!strings.Contains(body, `"version":3`) {
		t.Fatalf("rollback after recovery = %d: %s", code, body)
	}

	// The store surfaced its work in /metrics.
	if code, metrics := get(t, base+"/metrics"); code != 200 {
		t.Fatalf("metrics = %d", code)
	} else {
		for _, want := range []string{
			"rr_store_torn_records_total " + strconv.FormatFloat(tornBefore+1, 'g', -1, 64),
			"rr_store_models 2",
			"rr_store_wal_appends_total{op=\"put\"}",
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
		if strings.Contains(metrics, "rr_store_wal_appends_total{op=\"put\"} 0") {
			t.Error("rr_store_wal_appends_total{op=\"put\"} is zero")
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown #2: %v", err)
	}
}
