package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestEventsSinceTailing: every commit lands in the replication log and
// EventsSince serves exactly the suffix after a given seq.
func TestEventsSinceTailing(t *testing.T) {
	st := OpenMemory()
	r := testRules(t, 2)
	for i := 0; i < 5; i++ {
		if _, err := st.PutContext(bg, "m", r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.DeleteContext(bg, "m"); err != nil {
		t.Fatal(err)
	}
	if got := st.Seq(); got != 6 {
		t.Fatalf("seq = %d, want 6", got)
	}

	events, err := st.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("EventsSince(0) = %d events, want 6", len(events))
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[5].Op != "delete" || events[5].Name != "m" {
		t.Fatalf("last event = %+v, want delete m", events[5])
	}
	if events[2].Version != 3 || !bytes.Equal(events[2].Rules, rawOf(t, r)) {
		t.Fatalf("put event does not carry the canonical raw bytes: %+v", events[2])
	}

	tail, err := st.EventsSince(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0].Seq != 5 {
		t.Fatalf("EventsSince(4) = %+v, want seqs 5,6", tail)
	}
	head, err := st.EventsSince(6)
	if err != nil || len(head) != 0 {
		t.Fatalf("EventsSince(head) = %v, %v; want empty, nil", head, err)
	}
}

// TestEventsSinceBounds: a seq ahead of the head or behind the retained
// log answers ErrSnapshotNeeded.
func TestEventsSinceBounds(t *testing.T) {
	st := OpenMemory(WithReplicationLog(3))
	r := testRules(t, 2)
	for i := 0; i < 6; i++ {
		if _, err := st.PutContext(bg, "m", r); err != nil {
			t.Fatal(err)
		}
	}
	// Log bound 3: seqs 4..6 retained, asking from 2 must bootstrap.
	if _, err := st.EventsSince(2); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("EventsSince(trimmed) err = %v, want ErrSnapshotNeeded", err)
	}
	if events, err := st.EventsSince(3); err != nil || len(events) != 3 {
		t.Fatalf("EventsSince(base) = %v, %v; want 3 events", events, err)
	}
	if _, err := st.EventsSince(99); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("EventsSince(future) err = %v, want ErrSnapshotNeeded", err)
	}
}

// TestReplogTrimsWithPrunedRevisions: when max-versions prunes a
// revision, the replication log drops every event up to and including
// the one that installed it, whatever the log bound allows; a delete
// trims nothing.
func TestReplogTrimsWithPrunedRevisions(t *testing.T) {
	st := OpenMemory(WithMaxVersions(2))
	r := testRules(t, 2)
	// seq 1, 2: m v1, v2; seq 3: n v1; seq 4, 5, 6: m v3, v4, v5. The
	// last three prune m v1 (seq 1), v2 (seq 2) and v3 (seq 4).
	for _, name := range []string{"m", "m", "n", "m", "m", "m"} {
		if _, err := st.PutContext(bg, name, r); err != nil {
			t.Fatal(err)
		}
	}
	for after := uint64(0); after < 4; after++ {
		if _, err := st.EventsSince(after); !errors.Is(err, ErrSnapshotNeeded) {
			t.Fatalf("EventsSince(%d) err = %v, want ErrSnapshotNeeded", after, err)
		}
	}
	events, err := st.EventsSince(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Seq != 5 || events[0].Version != 4 ||
		events[1].Seq != 6 || events[1].Version != 5 {
		t.Fatalf("EventsSince(4) = %+v, want m v4 (seq 5) and m v5 (seq 6)", events)
	}

	// A delete drops n's history but leaves the log as it was.
	if _, err := st.DeleteContext(bg, "n"); err != nil {
		t.Fatal(err)
	}
	events, err = st.EventsSince(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[2].Seq != 7 || events[2].Op != "delete" {
		t.Fatalf("after delete, EventsSince(4) = %+v, want seqs 5, 6, 7", events)
	}

	// With one model churning, the log holds no more than its retained
	// revisions.
	st = OpenMemory(WithMaxVersions(4))
	for i := 0; i < 100; i++ {
		if _, err := st.PutContext(bg, "m", r); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.replog) > 4 {
		t.Fatalf("replication log holds %d events after 100 puts at max-versions 4", len(st.replog))
	}
	if events, err := st.EventsSince(96); err != nil || len(events) != 4 {
		t.Fatalf("EventsSince(96) = %d events, %v; want the 4 retained puts", len(events), err)
	}
	if _, err := st.EventsSince(95); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("EventsSince(95) err = %v, want ErrSnapshotNeeded", err)
	}
}

// TestEventsSinceAfterReopen: recovery replays without journaling, so a
// reopened store retains nothing and forces a snapshot bootstrap for
// any follower that is behind.
func TestEventsSinceAfterReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	r := testRules(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := st.PutContext(bg, "m", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Seq(); got != 3 {
		t.Fatalf("recovered seq = %d, want 3", got)
	}
	if _, err := st2.EventsSince(1); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("EventsSince after reopen err = %v, want ErrSnapshotNeeded", err)
	}
	if events, err := st2.EventsSince(3); err != nil || len(events) != 0 {
		t.Fatalf("EventsSince(head) after reopen = %v, %v", events, err)
	}
	// New commits tail normally again.
	if _, err := st2.PutContext(bg, "m", r); err != nil {
		t.Fatal(err)
	}
	if events, err := st2.EventsSince(3); err != nil || len(events) != 1 || events[0].Seq != 4 {
		t.Fatalf("EventsSince(3) after new commit = %v, %v", events, err)
	}
}

// TestChangedWakesTailers: a Changed channel obtained before a commit
// is closed by it.
func TestChangedWakesTailers(t *testing.T) {
	st := OpenMemory()
	ch := st.Changed()
	select {
	case <-ch:
		t.Fatal("Changed closed before any commit")
	default:
	}
	if _, err := st.PutContext(bg, "m", testRules(t, 2)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("Changed not closed by commit")
	}
	// Re-armed channel waits for the next commit.
	ch2 := st.Changed()
	select {
	case <-ch2:
		t.Fatal("re-armed Changed already closed")
	default:
	}
}

// TestApplyEventReplication drives a leader→follower pair through the
// store API alone: every leader event applies exactly once, replays are
// skipped (seq idempotence), gaps are rejected, and the follower serves
// byte-identical raw models at the same versions.
func TestApplyEventReplication(t *testing.T) {
	leader := OpenMemory()
	follower := OpenMemory()
	r1, r2 := testRules(t, 2), testRules(t, 3)
	if _, err := leader.PutContext(bg, "m", r1); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PutContext(bg, "m", r2); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PutContext(bg, "other", r1); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.DeleteContext(bg, "other"); err != nil {
		t.Fatal(err)
	}

	events, err := leader.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		applied, err := follower.ApplyEvent(ev)
		if err != nil || !applied {
			t.Fatalf("ApplyEvent(%d) = %v, %v", ev.Seq, applied, err)
		}
	}
	// Replaying the whole stream is a no-op.
	for _, ev := range events {
		applied, err := follower.ApplyEvent(ev)
		if err != nil {
			t.Fatalf("re-ApplyEvent(%d): %v", ev.Seq, err)
		}
		if applied {
			t.Fatalf("re-ApplyEvent(%d) applied twice", ev.Seq)
		}
	}
	if follower.Seq() != leader.Seq() {
		t.Fatalf("follower seq %d, leader %d", follower.Seq(), leader.Seq())
	}
	lr, lv, _ := getRaw(leader, "m")
	fr, fv, ok := getRaw(follower, "m")
	if !ok || lv != fv || !bytes.Equal(lr, fr) {
		t.Fatalf("follower head (v%d, %d bytes) != leader (v%d, %d bytes)", fv, len(fr), lv, len(lr))
	}
	if _, _, ok := follower.Get("other"); ok {
		t.Fatal("follower kept a model the leader deleted")
	}
	if len(follower.Names()) != 1 {
		t.Fatalf("follower names = %v", follower.Names())
	}
	// A version history check: both retained the same revisions.
	li, _ := leader.Versions("m")
	fi, _ := follower.Versions("m")
	if len(li) != len(fi) || len(fi) != 2 {
		t.Fatalf("version history mismatch: leader %d, follower %d", len(li), len(fi))
	}

	// A gap (skipping a seq) must be rejected with ErrSnapshotNeeded.
	if _, err := leader.PutContext(bg, "m", r1); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PutContext(bg, "m", r2); err != nil {
		t.Fatal(err)
	}
	tail, err := leader.EventsSince(leader.Seq() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ApplyEvent(tail[0]); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("gap apply err = %v, want ErrSnapshotNeeded", err)
	}

	// Garbage events are rejected before touching any state.
	if _, err := follower.ApplyEvent(Event{Seq: follower.Seq() + 1, Op: "put", Name: "x", Version: 1,
		Rules: []byte("{")}); err == nil {
		t.Fatal("corrupt put accepted")
	}
	if _, err := follower.ApplyEvent(Event{Seq: follower.Seq() + 1, Op: "nope", Name: "x"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestApplyEventDurable: replicated events are journaled into the
// follower's own WAL under the leader's seq, so a restarted follower
// resumes from its checkpointed position with identical state.
func TestApplyEventDurable(t *testing.T) {
	leader := OpenMemory()
	r1, r2 := testRules(t, 2), testRules(t, 3)
	if _, err := leader.PutContext(bg, "m", r1); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PutContext(bg, "m", r2); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	follower, err := Open(dir, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	events, err := leader.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if _, err := follower.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Seq() != leader.Seq() {
		t.Fatalf("reopened follower seq %d, leader %d", reopened.Seq(), leader.Seq())
	}
	lr, lv, _ := getRaw(leader, "m")
	fr, fv, ok := getRaw(reopened, "m")
	if !ok || fv != lv || !bytes.Equal(lr, fr) {
		t.Fatal("reopened follower state diverged from leader")
	}
	// Replaying the stream against the recovered store is still a no-op.
	for _, ev := range events {
		if applied, err := reopened.ApplyEvent(ev); err != nil || applied {
			t.Fatalf("replay after reopen: applied=%v err=%v", applied, err)
		}
	}
}

// TestRestoreSnapshot: the bootstrap path replaces the full state
// atomically, persists it, and leaves the store tailing from the
// restored seq.
func TestRestoreSnapshot(t *testing.T) {
	leader := OpenMemory()
	r1, r2 := testRules(t, 2), testRules(t, 3)
	if _, err := leader.PutContext(bg, "m", r1); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PutContext(bg, "m", r2); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.PutContext(bg, "gone", r1); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.DeleteContext(bg, "gone"); err != nil {
		t.Fatal(err)
	}
	doc := leader.SnapshotDoc()
	if doc.Seq != 4 {
		t.Fatalf("doc seq = %d, want 4", doc.Seq)
	}

	dir := t.TempDir()
	follower, err := Open(dir, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing local state (a stale bootstrap) is fully replaced.
	if _, err := follower.PutContext(bg, "stale", r1); err != nil {
		t.Fatal(err)
	}
	if err := follower.RestoreSnapshot(doc); err != nil {
		t.Fatal(err)
	}
	if follower.Seq() != 4 {
		t.Fatalf("restored seq = %d, want 4", follower.Seq())
	}
	if _, _, ok := follower.Get("stale"); ok {
		t.Fatal("stale pre-bootstrap model survived the restore")
	}
	lr, lv, _ := getRaw(leader, "m")
	fr, fv, ok := getRaw(follower, "m")
	if !ok || fv != lv || !bytes.Equal(lr, fr) {
		t.Fatal("restored state is not byte-identical to the leader")
	}
	// The deleted name's version counter shipped too: a future put on
	// the follower-turned-leader would not reuse versions.
	if doc.LastVersion["gone"] != 1 {
		t.Fatalf("doc.LastVersion[gone] = %d, want 1", doc.LastVersion["gone"])
	}

	// Restore persists: a reopen recovers the restored state without
	// replaying stale local WAL records past it.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Seq() != 4 {
		t.Fatalf("reopened restored seq = %d, want 4", reopened.Seq())
	}
	if _, _, ok := reopened.Get("stale"); ok {
		t.Fatal("stale model resurrected by recovery after restore")
	}

	// A corrupt doc must not touch any state.
	bad := leader.SnapshotDoc()
	bad.Models["m"][0].Rules = []byte("{torn")
	before, _, _ := getRaw(reopened, "m")
	if err := reopened.RestoreSnapshot(bad); err == nil {
		t.Fatal("corrupt snapshot doc accepted")
	}
	after, _, ok := getRaw(reopened, "m")
	if !ok || !bytes.Equal(before, after) {
		t.Fatal("failed restore mutated state")
	}
}

// TestRestoreSnapshotOutOfOrder: a doc may list a model's revisions in
// any order; the restored head is still the newest version, exactly as
// Open treats the same document on disk.
func TestRestoreSnapshotOutOfOrder(t *testing.T) {
	r1, r2 := testRules(t, 2), testRules(t, 3)
	doc := &SnapshotDoc{
		Seq: 2,
		Models: map[string][]SnapshotRev{
			"m": {{Version: 2, Rules: rawOf(t, r2)}, {Version: 1, Rules: rawOf(t, r1)}},
		},
		LastVersion: map[string]int{"m": 2},
	}
	st := OpenMemory()
	if err := st.RestoreSnapshot(doc); err != nil {
		t.Fatal(err)
	}
	raw, v, ok := getRaw(st, "m")
	if !ok || v != 2 || !bytes.Equal(raw, rawOf(t, r2)) {
		t.Fatalf("restored head = v%d (ok=%v), want v2", v, ok)
	}
	infos, _ := st.Versions("m")
	if len(infos) != 2 || infos[0].Version != 1 || !infos[1].Head || infos[1].Version != 2 {
		t.Fatalf("restored versions = %+v, want v1 then head v2", infos)
	}
}

// TestStaleVersionRejected: a well-framed put whose version is not
// above its name's counter — which no store journals — is refused by
// ApplyEvent and skipped by WAL replay, so a name's history keeps
// ascending with the newest version as its head.
func TestStaleVersionRejected(t *testing.T) {
	leader, follower := OpenMemory(), OpenMemory()
	for i := 0; i < 3; i++ {
		if _, err := leader.PutContext(bg, "m", testRules(t, float64(i+2))); err != nil {
			t.Fatal(err)
		}
	}
	events, err := leader.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if _, err := follower.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	stale := events[0]
	stale.Seq = follower.Seq() + 1
	if applied, err := follower.ApplyEvent(stale); err == nil || applied {
		t.Fatalf("stale put: applied=%v err=%v, want a refusal", applied, err)
	}
	if raw, v, _ := getRaw(follower, "m"); v != 3 || follower.Seq() != 3 || !bytes.Equal(raw, events[2].Rules) {
		t.Fatalf("after a refused stale put: head v%d at seq %d", v, follower.Seq())
	}

	dir := t.TempDir()
	var wal []byte
	for _, ev := range []Event{events[0], events[1], stale} {
		payload, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		wal = append(wal, encodeRecord(payload)...)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if infos, _ := st.Versions("m"); len(infos) != 2 || infos[1].Version != 2 || !infos[1].Head {
		t.Fatalf("replayed history = %+v, want v1 then head v2", infos)
	}
}
