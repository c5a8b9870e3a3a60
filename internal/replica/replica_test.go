package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/store"
)

// testRules mines a tiny 2-attribute rule set with slope controlling
// the b:a ratio, so distinct slopes yield byte-distinct models.
func testRules(t testing.TB, slope float64) *core.Rules {
	t.Helper()
	rows := make([][]float64, 20)
	for i := range rows {
		v := 1 + float64(i)*0.25
		rows[i] = []float64{v, slope * v}
	}
	x, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	miner, err := core.NewMiner(core.WithAttrNames([]string{"a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// bg is the context the tests' store mutations run under.
var bg = context.Background()

// getRaw returns name's head bytes and version, ok=false when absent.
func getRaw(s *store.Store, name string) ([]byte, int, bool) {
	r, err := s.Revision(name, 0)
	return r.Raw, r.Version, err == nil
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// startLeader serves a store's replication stream from an httptest
// server with a fast heartbeat.
func startLeader(t *testing.T, st *store.Store) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(&Handler{
		Store: st, Logger: quietLogger(), Heartbeat: 20 * time.Millisecond,
	})
	t.Cleanup(ts.Close)
	return ts
}

// startFollower runs a Follower against leaderURL until test cleanup.
func startFollower(t *testing.T, leaderURL string, st *store.Store) *Follower {
	t.Helper()
	f, err := New(Options{
		Leader:       leaderURL,
		Store:        st,
		Logger:       quietLogger(),
		MinBackoff:   10 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		StallTimeout: 5 * time.Second,
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
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("follower did not stop")
		}
	})
	return f
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
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

func TestWireRoundTrip(t *testing.T) {
	r := testRules(t, 2)
	leader := store.OpenMemory()
	if _, err := leader.PutContext(bg, "m", r); err != nil {
		t.Fatal(err)
	}
	events, err := leader.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}

	var buf []byte
	buf = AppendHeartbeat(buf, 7)
	if buf, err = AppendEvent(buf, events[0]); err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendSnapshot(buf, leader.SnapshotDoc()); err != nil {
		t.Fatal(err)
	}

	rd := bytes.NewReader(buf)
	hb, err := ReadFrame(rd)
	if err != nil || hb.Kind != KindHeartbeat || hb.Seq != 7 {
		t.Fatalf("heartbeat = %+v, %v", hb, err)
	}
	ev, err := ReadFrame(rd)
	if err != nil || ev.Kind != KindEvent || ev.Event.Seq != 1 || ev.Event.Op != "put" {
		t.Fatalf("event = %+v, %v", ev, err)
	}
	if !bytes.Equal(ev.Event.Rules, events[0].Rules) {
		t.Fatal("event rules bytes changed on the wire")
	}
	snap, err := ReadFrame(rd)
	if err != nil || snap.Kind != KindSnapshot || snap.Snapshot.Seq != 1 {
		t.Fatalf("snapshot = %+v, %v", snap, err)
	}
	if _, err := ReadFrame(rd); err != io.EOF {
		t.Fatalf("clean end err = %v, want io.EOF", err)
	}
}

func TestWireCorruption(t *testing.T) {
	frame := AppendHeartbeat(nil, 42)

	// Flip one payload byte: checksum must catch it.
	bad := bytes.Clone(frame)
	bad[frameHeaderLen] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt payload err = %v, want ErrBadFrame", err)
	}
	// Wrong magic.
	bad = bytes.Clone(frame)
	bad[0] = 'X'
	if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic err = %v, want ErrBadFrame", err)
	}
	// Truncated mid-frame.
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated err = %v, want ErrBadFrame", err)
	}
	// Absurd length.
	bad = bytes.Clone(frame)
	bad[4], bad[5], bad[6], bad[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("absurd length err = %v, want ErrBadFrame", err)
	}
}

// TestFollowerTailsLeader: live tailing end to end — events committed
// before and after the follower attaches all apply, raw bytes and
// version histories match, and the status reports synced with zero lag.
func TestFollowerTailsLeader(t *testing.T) {
	leader := store.OpenMemory()
	r1, r2 := testRules(t, 2), testRules(t, 3)
	if _, err := leader.PutContext(bg, "m", r1); err != nil {
		t.Fatal(err)
	}
	ts := startLeader(t, leader)
	fst := store.OpenMemory()
	f := startFollower(t, ts.URL, fst)

	waitFor(t, "catch-up", func() bool { return fst.Seq() == leader.Seq() })

	// Live events after attach.
	if _, err := leader.PutContext(bg, "m", r2); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PutContext(bg, "other", r1); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.DeleteContext(bg, "other"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live tail", func() bool { return fst.Seq() == leader.Seq() })

	lr, lv, _ := getRaw(leader, "m")
	fr, fv, ok := getRaw(fst, "m")
	if !ok || lv != fv || !bytes.Equal(lr, fr) {
		t.Fatalf("follower head v%d != leader v%d (or bytes differ)", fv, lv)
	}
	if _, _, ok := fst.Get("other"); ok {
		t.Fatal("follower kept a deleted model")
	}
	li, _ := leader.Versions("m")
	fi, _ := fst.Versions("m")
	if len(li) != len(fi) {
		t.Fatalf("version history: leader %d, follower %d", len(li), len(fi))
	}

	waitFor(t, "synced status", func() bool { return f.Status().Synced })
	s := f.Status()
	if !s.Connected || s.LagRecords != 0 || s.AppliedSeq != leader.Seq() || s.LeaderSeq != leader.Seq() {
		t.Fatalf("status = %+v", s)
	}
}

// TestFollowerSnapshotBootstrap: a follower attaching behind the
// retained replication log bootstraps from a snapshot frame and still
// converges to identical state, including retained history.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	leader := store.OpenMemory(store.WithReplicationLog(2))
	for i := 0; i < 6; i++ {
		if _, err := leader.PutContext(bg, "m", testRules(t, float64(i+2))); err != nil {
			t.Fatal(err)
		}
	}
	ts := startLeader(t, leader)
	fst := store.OpenMemory()
	f := startFollower(t, ts.URL, fst)

	waitFor(t, "bootstrap catch-up", func() bool { return fst.Seq() == leader.Seq() })
	if got := f.Status().SnapshotBootstraps; got != 1 {
		t.Fatalf("bootstraps = %d, want 1", got)
	}
	lr, lv, _ := getRaw(leader, "m")
	fr, fv, ok := getRaw(fst, "m")
	if !ok || lv != fv || !bytes.Equal(lr, fr) {
		t.Fatalf("bootstrapped head v%d != leader v%d", fv, lv)
	}
	li, _ := leader.Versions("m")
	fi, _ := fst.Versions("m")
	if len(li) != len(fi) {
		t.Fatalf("version history: leader %d, follower %d", len(li), len(fi))
	}
	// The stream keeps tailing after the bootstrap.
	if _, err := leader.PutContext(bg, "m", testRules(t, 99)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-bootstrap tail", func() bool { return fst.Seq() == leader.Seq() })
}

// TestFollowerBootstrapsPastPrunedRevision: with the default log bound,
// a follower attached after more than max-versions puts of one model has
// missed a revision the leader already pruned. The leader's log no longer
// reaches back that far, so the follower bootstraps from a snapshot once
// and ends with the leader's bytes and version history.
func TestFollowerBootstrapsPastPrunedRevision(t *testing.T) {
	leader := store.OpenMemory(store.WithMaxVersions(3))
	for i := 0; i < 5; i++ {
		if _, err := leader.PutContext(bg, "m", testRules(t, float64(i+2))); err != nil {
			t.Fatal(err)
		}
	}
	ts := startLeader(t, leader)
	fst := store.OpenMemory(store.WithMaxVersions(3))
	f := startFollower(t, ts.URL, fst)

	check := func(what string) {
		t.Helper()
		waitFor(t, what, func() bool { return fst.Seq() == leader.Seq() })
		if got := f.Status().SnapshotBootstraps; got != 1 {
			t.Fatalf("%s: bootstraps = %d, want 1", what, got)
		}
		lr, lv, _ := getRaw(leader, "m")
		fr, fv, ok := getRaw(fst, "m")
		if !ok || lv != fv || !bytes.Equal(lr, fr) {
			t.Fatalf("%s: follower head v%d != leader v%d", what, fv, lv)
		}
		li, _ := leader.Versions("m")
		fi, _ := fst.Versions("m")
		if !reflect.DeepEqual(li, fi) {
			t.Fatalf("%s: version history: leader %+v, follower %+v", what, li, fi)
		}
	}
	check("bootstrap")
	// Later puts arrive as events; pruning on both sides keeps the
	// histories equal without another bootstrap. Three puts prune only
	// revisions the snapshot already carried. A fourth could prune one
	// the stream had not yet shipped and force a second bootstrap.
	for i := 0; i < 3; i++ {
		if _, err := leader.PutContext(bg, "m", testRules(t, float64(i+20))); err != nil {
			t.Fatal(err)
		}
	}
	check("tail")
}

// TestFollowerCompactionRace: the leader snapshots + compacts and trims
// its tiny replication log while the follower is mid-stream. The
// follower may be forced through any number of snapshot bootstraps but
// must converge, and every model it serves along the way must parse —
// never a torn or partial document.
func TestFollowerCompactionRace(t *testing.T) {
	dir := t.TempDir()
	// Durable leader snapshotting every 2 commits with a 1-event
	// replication log: almost every catch-up round outruns the log.
	leader, err := store.Open(dir, store.WithNoSync(),
		store.WithSnapshotEvery(2), store.WithReplicationLog(1))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ts := startLeader(t, leader)
	fst := store.OpenMemory()
	f := startFollower(t, ts.URL, fst)

	// A reader goroutine hammers the follower's served model the whole
	// time: every observed document must be a loadable rule set.
	stop := make(chan struct{})
	done := make(chan struct{})
	var torn, reads atomic.Int32
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if raw, _, ok := getRaw(fst, "m"); ok {
				reads.Add(1)
				if _, err := core.Load(bytes.NewReader(raw)); err != nil {
					torn.Add(1)
					return
				}
			}
		}
	}()

	for i := 0; i < 40; i++ {
		if _, err := leader.PutContext(bg, "m", testRules(t, float64(i%7+2))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "convergence under compaction", func() bool { return fst.Seq() == leader.Seq() })
	// The model exists once converged, so the reader is guaranteed to
	// observe it — wait for that before stopping, or a scheduling race
	// could end the test with zero reads.
	waitFor(t, "reader observes the model", func() bool { return reads.Load() > 0 })
	close(stop)
	<-done
	if torn.Load() != 0 {
		t.Fatal("follower served a torn model")
	}
	if got := f.Status().SnapshotBootstraps; got < 1 {
		t.Fatalf("bootstraps = %d, want >= 1 with a 1-event log", got)
	}
	lr, lv, _ := getRaw(leader, "m")
	fr, fv, ok := getRaw(fst, "m")
	if !ok || lv != fv || !bytes.Equal(lr, fr) {
		t.Fatalf("converged head v%d != leader v%d", fv, lv)
	}
}

// TestFollowerReconnectsAfterLeaderRestart: kill the leader process
// (server + store), restart it on the same address and dir, and the
// follower re-attaches from its checkpointed seq with no duplicate
// application — version histories stay identical.
func TestFollowerReconnectsAfterLeaderRestart(t *testing.T) {
	dir := t.TempDir()
	leader, err := store.Open(dir, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PutContext(bg, "m", testRules(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PutContext(bg, "m", testRules(t, 3)); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serve := func(st *store.Store, l net.Listener) *http.Server {
		srv := &http.Server{Handler: &Handler{
			Store: st, Logger: quietLogger(), Heartbeat: 20 * time.Millisecond,
		}}
		go srv.Serve(l)
		return srv
	}
	srv := serve(leader, ln)

	fst := store.OpenMemory()
	f := startFollower(t, "http://"+addr, fst)
	waitFor(t, "initial catch-up", func() bool { return fst.Seq() == 2 })

	// Kill the leader: force-close connections, close the store.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnect noticed", func() bool { return !f.Status().Connected })

	// Restart on the same address + dir, then commit more.
	leader2, err := store.Open(dir, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer leader2.Close()
	if got := leader2.Seq(); got != 2 {
		t.Fatalf("recovered leader seq = %d, want 2", got)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := serve(leader2, ln2)
	defer srv2.Close()

	if _, err := leader2.PutContext(bg, "m", testRules(t, 4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart tail", func() bool { return fst.Seq() == 3 })

	s := f.Status()
	if s.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", s.Reconnects)
	}
	li, _ := leader2.Versions("m")
	fi, _ := fst.Versions("m")
	if len(li) != len(fi) || len(fi) != 3 {
		t.Fatalf("version history after restart: leader %d, follower %d, want 3 (no duplicates)", len(li), len(fi))
	}
	lr, _, _ := getRaw(leader2, "m")
	fr, _, _ := getRaw(fst, "m")
	if !bytes.Equal(lr, fr) {
		t.Fatal("follower bytes differ after leader restart")
	}
}

// TestFollowerDurableCheckpoint: a restarted DURABLE follower resumes
// from its own WAL's checkpointed seq — the reconnect asks the leader
// only for records after it, and nothing applies twice.
func TestFollowerDurableCheckpoint(t *testing.T) {
	leader := store.OpenMemory()
	for i := 0; i < 3; i++ {
		if _, err := leader.PutContext(bg, "m", testRules(t, float64(i+2))); err != nil {
			t.Fatal(err)
		}
	}
	ts := startLeader(t, leader)

	fdir := t.TempDir()
	fst, err := store.Open(fdir, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	f1 := startFollower(t, ts.URL, fst)
	waitFor(t, "first catch-up", func() bool { return fst.Seq() == 3 })
	_ = f1

	// "Crash" the follower: stop tailing, close its store.
	// (Cleanup-registered cancel would run later; do it inline via a
	// fresh follower below on the reopened store.)
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2, err := store.Open(fdir, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer fst2.Close()
	if got := fst2.Seq(); got != 3 {
		t.Fatalf("reopened follower seq = %d, want checkpointed 3", got)
	}
	if _, err := leader.PutContext(bg, "m", testRules(t, 9)); err != nil {
		t.Fatal(err)
	}
	f2 := startFollower(t, ts.URL, fst2)
	waitFor(t, "resume from checkpoint", func() bool { return fst2.Seq() == 4 })
	if got := f2.Status().SnapshotBootstraps; got != 0 {
		t.Fatalf("bootstraps = %d, want 0: resume must use the checkpointed seq", got)
	}
	li, _ := leader.Versions("m")
	fi, _ := fst2.Versions("m")
	if len(li) != len(fi) {
		t.Fatalf("version history: leader %d, follower %d (duplicate application?)", len(li), len(fi))
	}
}

// TestHandlerRejectsBadFrom: a garbage ?from= answers 400 through the
// pluggable error writer.
func TestHandlerRejectsBadFrom(t *testing.T) {
	leader := store.OpenMemory()
	var gotStatus int
	h := &Handler{Store: leader, Logger: quietLogger(),
		WriteError: func(w http.ResponseWriter, status int, err error) {
			gotStatus = status
			http.Error(w, err.Error(), status)
		}}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/replicate?from=banana", nil))
	if rec.Code != http.StatusBadRequest || gotStatus != http.StatusBadRequest {
		t.Fatalf("status = %d (writer saw %d), want 400", rec.Code, gotStatus)
	}
}

// TestFollowerSurvivesGarbageLeader: a leader that answers non-200 or
// garbage bytes keeps the follower reconnecting without wedging it.
func TestFollowerSurvivesGarbageLeader(t *testing.T) {
	var mode atomic.Int32 // 0: 503, 1: garbage frames, 2: real stream
	leader := store.OpenMemory()
	if _, err := leader.PutContext(bg, "m", testRules(t, 2)); err != nil {
		t.Fatal(err)
	}
	real := &Handler{Store: leader, Logger: quietLogger(), Heartbeat: 20 * time.Millisecond}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch mode.Load() {
		case 0:
			http.Error(w, "not yet", http.StatusServiceUnavailable)
		case 1:
			fmt.Fprint(w, "this is not a frame stream")
		default:
			real.ServeHTTP(w, req)
		}
	}))
	t.Cleanup(ts.Close)

	fst := store.OpenMemory()
	f := startFollower(t, ts.URL, fst)
	waitFor(t, "retry past 503", func() bool { return f.Status().Reconnects >= 1 })
	mode.Store(1)
	prev := f.Status().Reconnects
	waitFor(t, "retry past garbage", func() bool { return f.Status().Reconnects > prev })
	mode.Store(2)
	waitFor(t, "eventual catch-up", func() bool { return fst.Seq() == leader.Seq() })
}
