package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/online"
)

// memStore is a minimal online.ModelStore for tests.
type memStore struct {
	mu       sync.Mutex
	rules    map[string]*core.Rules
	versions map[string]int
}

func (s *memStore) PutContext(_ context.Context, name string, r *core.Rules) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rules == nil {
		s.rules = map[string]*core.Rules{}
		s.versions = map[string]int{}
	}
	s.rules[name] = r
	s.versions[name]++
	return s.versions[name], nil
}

func (s *memStore) Get(name string) (*core.Rules, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rules[name]
	return r, s.versions[name], ok
}

// testRows builds a deterministic rank-2 dataset with multiplicative
// noise — structured enough that mining yields a meaningful model.
func testRows(n, width int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	p1 := make([]float64, width)
	p2 := make([]float64, width)
	for j := range p1 {
		p1[j] = 1 + rng.Float64()*4
		p2[j] = rng.Float64() * 2
	}
	rows := make([][]float64, n)
	for i := range rows {
		a, b := 1+rng.Float64()*9, rng.Float64()*3
		row := make([]float64, width)
		for j := range row {
			row[j] = (a*p1[j] + b*p2[j]) * (1 + 0.05*rng.NormFloat64())
		}
		rows[i] = row
	}
	return rows
}

// testCluster is N workers behind real HTTP listeners plus a
// coordinator whose background cadences are parked so tests drive every
// merge explicitly via MergeNow.
type testCluster struct {
	c       *Coordinator
	mgr     *online.Manager
	store   *memStore
	workers []*Worker
	servers []*httptest.Server
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{store: &memStore{}}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w := NewWorker()
		srv := httptest.NewServer(w.Handler())
		tc.workers = append(tc.workers, w)
		tc.servers = append(tc.servers, srv)
		urls[i] = srv.URL
	}
	mgr, err := online.NewManager(tc.store, online.Config{
		Seed:          42,
		RepublishRows: 1 << 30, // republishes happen only via the coordinator
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.mgr = mgr
	c, err := New(Config{
		Workers:       urls,
		Manager:       mgr,
		Metrics:       obs.NewRegistry(),
		ChunkRows:     64, // small chunks so a few thousand rows spread widely
		PullEvery:     time.Hour,
		HealthEvery:   time.Hour,
		PullRetries:   2,
		Backoff:       5 * time.Millisecond,
		RepublishRows: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	tc.c = c
	t.Cleanup(func() {
		_ = c.Close(context.Background())
		_ = mgr.Close()
		for _, srv := range tc.servers {
			srv.Close()
		}
	})
	return tc
}

// pushAll drains a session's acks concurrently, pushes every row, and
// closes, returning the accepted/rejected tallies.
func pushAll(t *testing.T, s *Session, rows [][]float64) (accepted, rejected int) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range s.Acks() {
			if ev.Err != nil {
				rejected += ev.Rows
			} else {
				accepted += ev.Rows
			}
		}
	}()
	for _, row := range rows {
		if err := s.Push(row); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	<-done
	return accepted, rejected
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return d
	}
	return d / scale
}

// TestShardMergeEquivalence is the cluster's exactness property: rows
// fanned out across 4 workers and merged must yield the same published
// model as the same rows pushed through one single-node stream —
// because both the miner fold (sum of sufficient statistics) and the
// holdout reservoir (same seed, same offer order) are
// partition-independent.
func TestShardMergeEquivalence(t *testing.T) {
	const n, width = 4000, 8
	rows := testRows(n, width, 99)
	ctx := context.Background()

	tc := newTestCluster(t, 4)
	sess, err := tc.c.Ingest(ctx, "m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	accepted, rejected := pushAll(t, sess, rows)
	if accepted != n || rejected != 0 {
		t.Fatalf("cluster accepted %d / rejected %d, want %d / 0", accepted, rejected, n)
	}
	// Every worker should hold a share: the ring must actually shard.
	for i, w := range tc.workers {
		w.mu.Lock()
		sh := w.shards["m"]
		w.mu.Unlock()
		if sh == nil || sh.sm == nil || sh.sm.Count() == 0 {
			t.Fatalf("worker %d folded no rows; sharding is not spreading", i)
		}
	}
	if err := tc.c.MergeNow(ctx, "m"); err != nil {
		t.Fatalf("merge: %v", err)
	}
	clustered, _, ok := tc.store.Get("m")
	if !ok {
		t.Fatal("cluster merge published nothing")
	}

	// Single-node reference with the identical manager configuration.
	refStore := &memStore{}
	refMgr, err := online.NewManager(refStore, online.Config{Seed: 42, RepublishRows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer refMgr.Close()
	st, err := refMgr.Stream("m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if _, err := st.Push(ctx, row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := refMgr.Republish(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	single, _, ok := refStore.Get("m")
	if !ok {
		t.Fatal("single-node republish published nothing")
	}

	const tol = 1e-12
	if clustered.TrainedRows() != single.TrainedRows() {
		t.Fatalf("trained rows: cluster %d, single %d", clustered.TrainedRows(), single.TrainedRows())
	}
	cm, sm := clustered.Means(), single.Means()
	for j := range sm {
		if relDiff(cm[j], sm[j]) > tol {
			t.Fatalf("mean %d: cluster %v, single %v", j, cm[j], sm[j])
		}
	}
	cev, sev := clustered.Eigenvalues(), single.Eigenvalues()
	if len(cev) != len(sev) {
		t.Fatalf("k: cluster %d, single %d", len(cev), len(sev))
	}
	for i := range sev {
		if relDiff(cev[i], sev[i]) > tol {
			t.Fatalf("eigenvalue %d: cluster %v, single %v", i, cev[i], sev[i])
		}
	}

	// The end-to-end check the acceptance criterion states: GE₁ on a
	// held-out matrix matches far inside 1e-9.
	holdRows := testRows(256, width, 100)
	hold := matrix.NewDense(len(holdRows), width)
	for i, row := range holdRows {
		for j, v := range row {
			hold.Set(i, j, v)
		}
	}
	geC, err := core.GE1(clustered, hold)
	if err != nil {
		t.Fatal(err)
	}
	geS, err := core.GE1(single, hold)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(geC, geS) > tol {
		t.Fatalf("GE1: cluster %v, single %v (rel %v)", geC, geS, relDiff(geC, geS))
	}
}

// TestSessionRejectsBadRowsInOrder checks the per-row error contract:
// bad rows surface as one-row error events at their input position and
// never reach a shard.
func TestSessionRejectsBadRowsInOrder(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx := context.Background()
	sess, err := tc.c.Ingest(ctx, "m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(200, 4, 5)
	rows[50] = []float64{1, math.NaN(), 3, 4}
	rows[120] = []float64{1, 2} // wrong width
	accepted, rejected := pushAll(t, sess, rows)
	if accepted != 198 || rejected != 2 {
		t.Fatalf("accepted %d rejected %d, want 198 / 2", accepted, rejected)
	}
	total := 0
	for _, w := range tc.workers {
		w.mu.Lock()
		if sh := w.shards["m"]; sh != nil && sh.sm != nil {
			total += sh.sm.Count()
		}
		w.mu.Unlock()
	}
	if total != 198 {
		t.Fatalf("workers hold %d rows, want 198", total)
	}
}

// TestWorkerFailureDegradedRepublishAndRejoin is the kill-a-worker e2e:
// a worker dies mid-stream → its unacked chunks reshard to survivors
// and the session completes; the next merge substitutes the dead
// instance's retained shard and reports degraded; a fresh worker joins
// → the ring reshards onto it and rows land there.
func TestWorkerFailureDegradedRepublishAndRejoin(t *testing.T) {
	const width = 6
	tc := newTestCluster(t, 3)
	ctx := context.Background()

	// Round 1: healthy fan-out, first merge retains all three shards.
	sess, err := tc.c.Ingest(ctx, "m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if a, r := pushAll(t, sess, testRows(3000, width, 11)); a != 3000 || r != 0 {
		t.Fatalf("round 1: accepted %d rejected %d", a, r)
	}
	if err := tc.c.MergeNow(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if st := tc.c.Status(); st.Healthy != 3 || st.Degraded || st.Retained != 3 {
		t.Fatalf("after round 1: %+v", st)
	}
	_, v1, _ := tc.store.Get("m")

	// Round 2: kill worker 0 mid-session. Its open fan-out connection
	// dies, the session reshards the unacked chunks, and every row is
	// still acked.
	sess, err = tc.c.Ingest(ctx, "m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(3000, width, 12)
	done := make(chan struct{})
	var accepted, rejected int
	go func() {
		defer close(done)
		for ev := range sess.Acks() {
			if ev.Err != nil {
				rejected += ev.Rows
			} else {
				accepted += ev.Rows
			}
		}
	}()
	for i, row := range rows {
		if i == 1500 {
			tc.servers[0].CloseClientConnections()
			tc.servers[0].Close()
		}
		if err := sess.Push(row); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	<-done
	if accepted != 3000 || rejected != 0 {
		t.Fatalf("round 2: accepted %d rejected %d, want 3000 / 0", accepted, rejected)
	}

	// The dead worker's instance must be tainted out of membership.
	deadInstance := tc.workers[0].Instance()
	st := tc.c.Status()
	if st.Healthy != 2 {
		t.Fatalf("healthy %d, want 2: %+v", st.Healthy, st)
	}
	foundTaint := false
	for _, m := range st.Members {
		if m.Instance == deadInstance && m.Tainted && !m.Healthy {
			foundTaint = true
		}
	}
	if !foundTaint {
		t.Fatalf("dead instance %s not tainted: %+v", deadInstance, st.Members)
	}

	// The merge degrades to the retained shard of the dead instance but
	// still publishes a new version.
	if err := tc.c.MergeNow(ctx, "m"); err != nil {
		t.Fatalf("degraded merge: %v", err)
	}
	st = tc.c.Status()
	if !st.Degraded {
		t.Fatalf("merge after worker death not degraded: %+v", st)
	}
	if tc.c.met.degraded.Value() < 1 {
		t.Fatal("rr_cluster_degraded_republishes_total did not move")
	}
	if _, v2, _ := tc.store.Get("m"); v2 <= v1 {
		t.Fatalf("degraded merge published nothing: v1=%d v2=%d", v1, v2)
	}

	// Rejoin: a fresh worker (new instance) joins, the ring reshards,
	// and new rows land on it.
	w3 := NewWorker()
	srv3 := httptest.NewServer(w3.Handler())
	defer srv3.Close()
	reshardsBefore := tc.c.met.reshardings.Value()
	if err := tc.c.Join(srv3.URL); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := tc.c.Status().Healthy; got != 3 {
		t.Fatalf("healthy after join: %d, want 3", got)
	}
	if tc.c.met.reshardings.Value() <= reshardsBefore {
		t.Fatal("join did not rebuild the ring")
	}
	sess, err = tc.c.Ingest(ctx, "m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if a, r := pushAll(t, sess, testRows(3000, width, 13)); a != 3000 || r != 0 {
		t.Fatalf("round 3: accepted %d rejected %d", a, r)
	}
	w3.mu.Lock()
	sh := w3.shards["m"]
	w3.mu.Unlock()
	if sh == nil || sh.sm == nil || sh.sm.Count() == 0 {
		t.Fatal("rejoined worker received no rows after resharding")
	}
	if err := tc.c.MergeNow(ctx, "m"); err != nil {
		t.Fatalf("post-rejoin merge: %v", err)
	}
}

// TestIngestDecayConflict mirrors the public 409 contract.
func TestIngestDecayConflict(t *testing.T) {
	tc := newTestCluster(t, 1)
	ctx := context.Background()
	sess, err := tc.c.Ingest(ctx, "m", 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if a, r := pushAll(t, sess, testRows(10, 3, 1)); a != 10 || r != 0 {
		t.Fatalf("accepted %d rejected %d", a, r)
	}
	if _, err := tc.c.Ingest(ctx, "m", 0.9, true); !errors.Is(err, online.ErrDecayConflict) {
		t.Fatalf("got %v, want ErrDecayConflict", err)
	}
}

// TestWorkerErrorPositions pins the exact input positions of error
// events through the batched-validation path: a non-finite row mid-chunk
// splits the chunk, and its error event lands between the acks for the
// rows around it.
func TestWorkerErrorPositions(t *testing.T) {
	store := &memStore{}
	mgr, err := online.NewManager(store, online.Config{Seed: 1, RepublishRows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	var urls []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(NewWorker().Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	c, err := New(Config{
		Workers:       urls,
		Manager:       mgr,
		Metrics:       obs.NewRegistry(),
		ChunkRows:     16,
		PullEvery:     time.Hour,
		HealthEvery:   time.Hour,
		RepublishRows: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ctx := context.Background()
	defer c.Close(ctx)
	sess, err := c.Ingest(ctx, "m", 0, false)
	if err != nil {
		t.Fatal(err)
	}

	rows := testRows(100, 4, 7)
	rows[5] = []float64{1, math.NaN(), 3, 4}   // mid-first-chunk
	rows[6] = []float64{1, 2, math.Inf(-1), 4} // adjacent bad row
	rows[40] = []float64{9}                    // wrong width

	type out struct {
		rows int
		err  bool
	}
	var got []out
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sess.Acks() {
			got = append(got, out{rows: ev.Rows, err: ev.Err != nil})
		}
	}()
	for _, row := range rows {
		if err := sess.Push(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	// Reconstruct per-row outcomes from the run-length events and check
	// exactly rows 5, 6, and 40 failed.
	var flat []bool
	for _, o := range got {
		for i := 0; i < o.rows; i++ {
			flat = append(flat, o.err)
		}
	}
	if len(flat) != 100 {
		t.Fatalf("events cover %d rows, want 100: %+v", len(flat), got)
	}
	for i, bad := range flat {
		want := i == 5 || i == 6 || i == 40
		if bad != want {
			t.Fatalf("row %d: error=%v, want %v (events %+v)", i, bad, want, got)
		}
	}
}

// TestSessionCutsChunksAtCellCap: with ChunkRows at the wire's row cap,
// rows 32 wide would fill chunks of 2 Mi values, which every worker
// refuses. The session cuts its chunks at MaxChunkCells/width rows
// instead, and every row is acked.
func TestSessionCutsChunksAtCellCap(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.c.cfg.ChunkRows = MaxChunkRows // read once per session, at Ingest
	sess, err := tc.c.Ingest(context.Background(), "wide", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	const width = 32
	rows := testRows(MaxChunkCells/width+100, width, 9)
	var accepted, largest int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sess.Acks() {
			if ev.Err != nil {
				t.Errorf("chunk of %d rows failed: %v", ev.Rows, ev.Err)
				continue
			}
			accepted += ev.Rows
			largest = max(largest, ev.Rows)
		}
	}()
	for _, row := range rows {
		if err := sess.Push(row); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	<-done
	if accepted != len(rows) || largest != MaxChunkCells/width {
		t.Fatalf("accepted %d of %d rows, largest chunk %d rows; want all, at most %d",
			accepted, len(rows), largest, MaxChunkCells/width)
	}
}
