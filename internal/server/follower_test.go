package server

// Follower-mode server tests: the read-only role gating driven by the
// declarative route table, and the end-to-end consistency contract —
// a follower tailing a live leader serves byte-identical bodies and
// ETags at the same seq.

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ratiorules/internal/replica"
	"ratiorules/internal/store"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newFollowerPair starts a leader server and a follower server whose
// replica tails the leader's real /v1/replicate route.
func newFollowerPair(t *testing.T) (leader, follower *httptest.Server, f *replica.Follower) {
	t.Helper()
	leader = newTestServer(t)

	fstore := store.OpenMemory()
	f, err := replica.New(replica.Options{
		Leader:     leader.URL,
		Store:      fstore,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	follower = httptest.NewServer(Handler(NewRegistryWithStore(fstore),
		WithFollower(f, leader.URL, time.Minute)))
	t.Cleanup(follower.Close)
	return leader, follower, f
}

// TestFollowerRoleGating walks the entire route table against a live
// follower: every mutating route answers 403 read_only pointing at the
// leader, every read route serves (never 403/405), coordinator-only
// routes answer 404, and the derived Allow headers still cover the full
// API surface.
func TestFollowerRoleGating(t *testing.T) {
	leader, follower, _ := newFollowerPair(t)
	mineModel(t, leader, "m")

	for _, rt := range v1Routes {
		path := strings.ReplaceAll(rt.path, "{name}", "m")
		label := rt.method + " " + rt.path
		resp := doRaw(t, rt.method, follower.URL+path, "", "{}")
		switch {
		case rt.mutating:
			if resp.StatusCode != http.StatusForbidden {
				t.Errorf("%s: status %d, want 403 on a follower", label, resp.StatusCode)
			} else {
				if code := decodeEnvelope(t, label, resp.Body); code != CodeReadOnly {
					t.Errorf("%s: code %q, want %q", label, code, CodeReadOnly)
				}
			}
		case rt.roles&RoleFollower == 0: // coordinator-only admin
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: status %d, want 404 on a follower", label, resp.StatusCode)
			}
		default: // read route: must be served, whatever the outcome
			if resp.StatusCode == http.StatusForbidden || resp.StatusCode == http.StatusMethodNotAllowed {
				t.Errorf("%s: status %d; read routes must serve on a follower", label, resp.StatusCode)
			}
		}
		// No drain: GET /v1/replicate streams forever; Close hangs up.
		resp.Body.Close()
	}

	// The Allow surface is identical to the leader's: mutating routes
	// exist (403), they are not missing (405/404).
	resp := doRaw(t, http.MethodPatch, follower.URL+"/v1/rules/m", "", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH on follower: status %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != "GET, PUT, DELETE" {
		t.Errorf("follower Allow = %q, want %q", got, "GET, PUT, DELETE")
	}
	resp.Body.Close()

	// The read_only envelope names the leader so clients can redirect.
	resp = doRaw(t, http.MethodDelete, follower.URL+"/v1/rules/m", "", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), leader.URL) {
		t.Errorf("read_only envelope %s does not name the leader %s", body, leader.URL)
	}
}

// TestFollowerServesIdenticalBytes is the consistency contract: after
// the follower catches up, GET bodies and ETags are byte-identical to
// the leader at the same seq, conditional GETs answer 304 with the same
// validator, and inference runs on the replica.
func TestFollowerServesIdenticalBytes(t *testing.T) {
	leader, follower, f := newFollowerPair(t)
	mineModel(t, leader, "m")
	mineModel(t, leader, "m") // v2 head, v1 retained

	waitUntil(t, "follower catch-up", func() bool {
		s := f.Status()
		return s.AppliedSeq == 2 && s.Synced
	})

	get := func(ts *httptest.Server, path string) (string, []byte) {
		t.Helper()
		resp := doRaw(t, http.MethodGet, ts.URL+path, "", "")
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("ETag"), body
	}
	for _, path := range []string{"/v1/rules/m", "/v1/rules/m?version=1"} {
		lEtag, lBody := get(leader, path)
		fEtag, fBody := get(follower, path)
		if lEtag != fEtag {
			t.Errorf("GET %s: ETag leader %q != follower %q", path, lEtag, fEtag)
		}
		if string(lBody) != string(fBody) {
			t.Errorf("GET %s: bodies differ (%d vs %d bytes)", path, len(lBody), len(fBody))
		}
	}

	// A leader ETag validates on the follower: caches shared across the
	// fleet see one coherent validator space.
	req, _ := http.NewRequest(http.MethodGet, follower.URL+"/v1/rules/m", nil)
	req.Header.Set("If-None-Match", `"v2"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET on follower: status %d, want 304", resp.StatusCode)
	}

	// Inference serves on the replica.
	var fill fillResponse
	if status := doJSON(t, http.MethodPost, follower.URL+"/v1/rules/m/fill",
		fillRequest{Record: []float64{3, 0}, Holes: []int{1}}, &fill); status != http.StatusOK {
		t.Fatalf("fill on follower: status %d", status)
	}
	if got := fill.Filled[1]; got < 5.9 || got > 6.1 {
		t.Errorf("fill on follower = %g, want ~6", got)
	}

	// New leader writes flow through live.
	mineModel(t, leader, "m")
	waitUntil(t, "live tail", func() bool { return f.Status().AppliedSeq == 3 })
	lEtag, lBody := get(leader, "/v1/rules/m")
	fEtag, fBody := get(follower, "/v1/rules/m")
	if lEtag != fEtag || string(lBody) != string(fBody) {
		t.Errorf("post-write: leader %q/%d bytes, follower %q/%d bytes",
			lEtag, len(lBody), fEtag, len(fBody))
	}
}

// TestFollowerReadyz pins the readiness contract of a replica: synced
// answers ready with the replica block; staleness beyond the bound
// answers 503 replica_lagging with Retry-After.
func TestFollowerReadyz(t *testing.T) {
	leader, follower, f := newFollowerPair(t)
	mineModel(t, leader, "m")
	// Synced alone is not enough: the first heartbeat can report leader
	// seq 0 before the put commits, and the follower is synced at 0.
	waitUntil(t, "sync", func() bool {
		st := f.Status()
		return st.Synced && st.AppliedSeq == 1
	})

	var body struct {
		Status  string          `json:"status"`
		Role    string          `json:"role"`
		Replica *replica.Status `json:"replica"`
	}
	if status := doJSON(t, http.MethodGet, follower.URL+"/readyz", nil, &body); status != http.StatusOK {
		t.Fatalf("readyz: status %d", status)
	}
	if body.Status != "ready" || body.Role != "follower" || body.Replica == nil {
		t.Fatalf("readyz body = %+v", body)
	}
	if !body.Replica.Synced || body.Replica.AppliedSeq != 1 {
		t.Fatalf("replica block = %+v", body.Replica)
	}

	// A follower that can never reach its leader trips replica_lagging
	// once staleness exceeds the bound (here: immediately).
	dead, err := replica.New(replica.Options{
		Leader:     "http://127.0.0.1:1", // nothing listens on port 1
		Store:      store.OpenMemory(),
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		MinBackoff: time.Hour, // never actually dial during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	lagTS := httptest.NewServer(Handler(NewRegistry(),
		WithFollower(dead, "http://127.0.0.1:1", time.Nanosecond)))
	t.Cleanup(lagTS.Close)

	resp := doRaw(t, http.MethodGet, lagTS.URL+"/readyz", "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lagging readyz: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("lagging readyz: missing Retry-After")
	}
	if code := decodeEnvelope(t, "lagging readyz", resp.Body); code != CodeReplicaLagging {
		t.Errorf("lagging readyz code = %q, want %q", code, CodeReplicaLagging)
	}
}

// TestReplicateRouteOnLeader: the replication stream mounts on plain
// leaders and speaks frames; a bad ?from answers the envelope.
func TestReplicateRouteOnLeader(t *testing.T) {
	ts := newTestServer(t)
	mineModel(t, ts, "m")

	resp := doRaw(t, http.MethodGet, ts.URL+"/v1/replicate?from=bogus", "", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: status %d, want 400", resp.StatusCode)
	}
	if code := decodeEnvelope(t, "bad from", resp.Body); code != CodeBadRequest {
		t.Errorf("bad from code = %q", code)
	}
	resp.Body.Close()

	// A well-formed request streams frames; read the first (heartbeat)
	// and the catch-up event, then hang up.
	resp = doRaw(t, http.MethodGet, ts.URL+"/v1/replicate?from=0", "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate: status %d", resp.StatusCode)
	}
	fr, err := replica.ReadFrame(resp.Body)
	if err != nil || fr.Kind != replica.KindHeartbeat || fr.Seq != 1 {
		t.Fatalf("first frame = %+v, %v; want heartbeat seq 1", fr, err)
	}
	fr, err = replica.ReadFrame(resp.Body)
	if err != nil || fr.Kind != replica.KindEvent || fr.Event.Seq != 1 {
		t.Fatalf("second frame = %+v, %v; want event seq 1", fr, err)
	}
}
