package replica

import (
	"context"
	"testing"
	"time"

	"ratiorules/internal/obs/trace"
	"ratiorules/internal/store"
)

// TestFollowerContinuesLeaderTrace commits a traced mutation on the
// leader and asserts the follower seals a replica.apply span under the
// SAME trace ID the leader's request ran under, with a remote-parent
// reference back to the leader-side span — the replication half of
// cross-node trace propagation.
func TestFollowerContinuesLeaderTrace(t *testing.T) {
	leaderStore := store.OpenMemory(store.WithLogger(quietLogger()))
	ts := startLeader(t, leaderStore)

	followerStore := store.OpenMemory(store.WithLogger(quietLogger()))
	followerTracer := trace.New(trace.Config{})
	f, err := New(Options{
		Leader:       ts.URL,
		Store:        followerStore,
		Logger:       quietLogger(),
		Tracer:       followerTracer,
		MinBackoff:   10 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		StallTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = f.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("follower did not stop")
		}
	})

	// Commit through PutContext with a live span, the way a traced
	// HTTP PUT does — the journal stamps the event with the
	// traceparent of whatever span is active in ctx.
	leaderTracer := trace.New(trace.Config{})
	putCtx, sp := leaderTracer.StartRoot(context.Background(), "PUT /v1/rules/{name}", trace.SpanContext{})
	if _, err := leaderStore.PutContext(putCtx, "m", testRules(t, 2)); err != nil {
		t.Fatal(err)
	}
	sp.End()
	traceID := sp.TraceID()

	waitFor(t, "follower sync", func() bool {
		return followerStore.Seq() >= leaderStore.Seq()
	})
	var td trace.TraceData
	waitFor(t, "follower trace under leader trace ID", func() bool {
		var ok bool
		td, ok = followerTracer.Recorder().Get(traceID)
		return ok
	})

	var apply *trace.SpanData
	for i := range td.Spans {
		if td.Spans[i].Name == "replica.apply" {
			apply = &td.Spans[i]
		}
	}
	if apply == nil {
		t.Fatalf("no replica.apply span in follower trace: %+v", td.Spans)
	}
	attrs := map[string]any{}
	for _, a := range apply.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["model"] != "m" {
		t.Errorf("replica.apply attrs = %v, want model=m", attrs)
	}
	// The span's parent is the leader-side span, absent from the local
	// span set — it must surface as a remote-parent reference.
	var remoteParent bool
	for _, ref := range trace.RemoteRefs(td.Spans) {
		if ref.Kind == "parent" && ref.SpanID == apply.ParentID {
			remoteParent = true
		}
	}
	if !remoteParent {
		t.Errorf("no remote-parent ref for replica.apply (parent %s): %+v",
			apply.ParentID, trace.RemoteRefs(td.Spans))
	}
}

// TestUntracedCommitAppliesQuietly pins the negative space: an
// untraced leader commit replicates with no trace stamp, and a tracing
// follower applies it without opening a span.
func TestUntracedCommitAppliesQuietly(t *testing.T) {
	leaderStore := store.OpenMemory(store.WithLogger(quietLogger()))
	ts := startLeader(t, leaderStore)

	followerStore := store.OpenMemory(store.WithLogger(quietLogger()))
	followerTracer := trace.New(trace.Config{})
	f, err := New(Options{
		Leader:       ts.URL,
		Store:        followerStore,
		Logger:       quietLogger(),
		Tracer:       followerTracer,
		MinBackoff:   10 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		StallTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = f.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	if _, err := leaderStore.PutContext(bg, "plain", testRules(t, 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower sync", func() bool {
		return followerStore.Seq() >= leaderStore.Seq()
	})
	if n := followerTracer.Recorder().Len(); n != 0 {
		t.Fatalf("follower recorded %d traces for an untraced commit, want 0", n)
	}
}
