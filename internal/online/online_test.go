package online

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/obs"
)

// fakeStore is an in-memory ModelStore recording every promotion.
type fakeStore struct {
	mu      sync.Mutex
	models  map[string]*core.Rules
	version map[string]int
	puts    int
	failPut error
}

func newFakeStore() *fakeStore {
	return &fakeStore{models: make(map[string]*core.Rules), version: make(map[string]int)}
}

func (f *fakeStore) PutContext(_ context.Context, name string, rules *core.Rules) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failPut != nil {
		return 0, f.failPut
	}
	f.puts++
	f.version[name]++
	f.models[name] = rules
	return f.version[name], nil
}

func (f *fakeStore) Get(name string) (*core.Rules, int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.models[name]
	return r, f.version[name], ok
}

func (f *fakeStore) headVersion(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version[name]
}

// cleanRow is the paper's ratio regime: amount:2·amount, so a model
// mined on clean rows reconstructs them exactly (GE1 ~ 0).
func cleanRow(i int) []float64 {
	x := 1 + float64(i%17)/4
	return []float64{x, 2 * x}
}

// antiRow inverts the ratio at the same magnitude — the adversarial
// regime that must not capture the served model.
func antiRow(i int) []float64 {
	x := 1 + float64(i%17)/4
	return []float64{x, -2 * x}
}

func testManager(t *testing.T, store ModelStore, cfg Config) *Manager {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	m, err := NewManager(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

func pushN(t *testing.T, st *Stream, n int, row func(int) []float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := st.Push(context.Background(), row(i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

// TestRowTriggerFirstPublish: without Start, crossing the row threshold
// republishes synchronously and the first candidate publishes version 1
// (no baseline to gate against).
func TestRowTriggerFirstPublish(t *testing.T) {
	fs := newFakeStore()
	m := testManager(t, fs, Config{RepublishRows: 24})
	st, err := m.Stream("m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 24, cleanRow)
	if got := fs.headVersion("m"); got != 1 {
		t.Fatalf("head version = %d, want 1 after row trigger", got)
	}
	status, ok := m.Status("m")
	if !ok {
		t.Fatal("no stream status")
	}
	if status.Rows != 24 || status.Width != 2 || status.Promotions != 1 ||
		status.Republishes != 1 || status.Pending != 0 {
		t.Fatalf("status = %+v", status)
	}
	if status.ReservoirRows != 24 {
		t.Fatalf("reservoir = %d, want 24 (below capacity keeps every row)", status.ReservoirRows)
	}
}

// TestGEGateRejectsHijackedStream is the adversarial scenario the gate
// exists for: a decayed stream is hijacked by a short burst of
// anti-correlated rows. The re-mined candidate fits the burst, but the
// reservoir still remembers the long clean history, so candidate GE1
// regresses and the gate must keep the served version.
func TestGEGateRejectsHijackedStream(t *testing.T) {
	fs := newFakeStore()
	m := testManager(t, fs, Config{RepublishRows: 1 << 30, ReservoirSize: 512})
	st, err := m.Stream("m", 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 200, cleanRow)
	res, err := m.Republish(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.Reason != "first_publish" {
		t.Fatalf("first republish = %+v", res)
	}

	pushN(t, st, 20, antiRow)
	res, err = m.Republish(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted {
		t.Fatalf("hijacked candidate promoted: %+v", res)
	}
	if res.Reason != "ge_regressed" || res.CandidateGE <= res.ServedGE {
		t.Fatalf("rejection = %+v", res)
	}
	if got := fs.headVersion("m"); got != 1 {
		t.Fatalf("served version moved to %d after rejection", got)
	}
	status, _ := m.Status("m")
	if status.Rejections != 1 || status.Promotions != 1 {
		t.Fatalf("status after rejection = %+v", status)
	}
	if status.LastCandGE <= status.LastServedGE {
		t.Fatalf("status GE not recorded: %+v", status)
	}

	// The stream itself keeps accumulating: once clean rows return and
	// wash the burst out of the decayed sums, promotion resumes.
	pushN(t, st, 200, cleanRow)
	res, err = m.Republish(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("recovered candidate still rejected: %+v", res)
	}
	if got := fs.headVersion("m"); got != 2 {
		t.Fatalf("head version = %d after recovery, want 2", got)
	}
}

// TestDecayConflict: an explicit decay that contradicts the running
// stream is refused; omitting the decay joins it.
func TestDecayConflict(t *testing.T) {
	m := testManager(t, newFakeStore(), Config{})
	if _, err := m.Stream("m", 0.25, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stream("m", 0.1, true); !errors.Is(err, ErrDecayConflict) {
		t.Fatalf("conflicting decay: err = %v, want ErrDecayConflict", err)
	}
	st, err := m.Stream("m", 0, false)
	if err != nil {
		t.Fatalf("implicit join: %v", err)
	}
	if st.decay != 0.25 {
		t.Fatalf("joined stream decay = %v, want 0.25", st.decay)
	}
	if _, err := m.Stream("m2", 1.5, true); err == nil {
		t.Fatal("decay outside [0,1) accepted")
	}
}

// TestPushRejectsBadRows: width changes mid-stream fail per-row without
// disturbing the accumulated state.
func TestPushRejectsBadRows(t *testing.T) {
	m := testManager(t, newFakeStore(), Config{})
	st, _ := m.Stream("m", 0, false)
	pushN(t, st, 3, cleanRow)
	if _, err := st.Push(context.Background(), []float64{1, 2, 3}); !errors.Is(err, core.ErrWidth) {
		t.Fatalf("wide row: err = %v, want ErrWidth", err)
	}
	status, _ := m.Status("m")
	if status.Rows != 3 || status.ReservoirRows != 3 {
		t.Fatalf("bad row disturbed state: %+v", status)
	}
}

// TestReservoirCapAndUniformity: the reservoir never exceeds its
// capacity and keeps sampling after it fills.
func TestReservoirCapAndUniformity(t *testing.T) {
	m := testManager(t, newFakeStore(), Config{RepublishRows: 1 << 30, ReservoirSize: 16, Seed: 7})
	st, _ := m.Stream("m", 0, false)
	pushN(t, st, 500, cleanRow)
	status, _ := m.Status("m")
	if status.ReservoirRows != 16 {
		t.Fatalf("reservoir = %d, want capacity 16", status.ReservoirRows)
	}
	st.mu.Lock()
	seen := st.seen
	st.mu.Unlock()
	if seen != 500 {
		t.Fatalf("seen = %d, want 500", seen)
	}
}

// TestIntervalRepublish: with Start and an interval trigger, ingested
// rows publish without ever crossing the row threshold.
func TestIntervalRepublish(t *testing.T) {
	fs := newFakeStore()
	m := testManager(t, fs, Config{RepublishRows: 1 << 30, RepublishEvery: 5 * time.Millisecond})
	m.Start()
	st, _ := m.Stream("m", 0, false)
	pushN(t, st, 40, cleanRow)
	deadline := time.Now().Add(5 * time.Second)
	for fs.headVersion("m") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval republish never promoted")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRepublishNoStream and too-few-rows behavior.
func TestRepublishEdgeCases(t *testing.T) {
	m := testManager(t, newFakeStore(), Config{})
	if _, err := m.Republish(context.Background(), "ghost"); !errors.Is(err, ErrNoStream) {
		t.Fatalf("ghost republish: err = %v, want ErrNoStream", err)
	}
	st, _ := m.Stream("m", 0, false)
	pushN(t, st, 1, cleanRow)
	if _, err := m.Republish(context.Background(), "m"); err == nil {
		t.Fatal("republish with 1 row must fail")
	}
}

// TestDrop removes the stream and its checkpoint file.
func TestDrop(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, newFakeStore(), Config{CheckpointDir: dir, RepublishRows: 1 << 30})
	st, _ := m.Stream("m", 0, false)
	pushN(t, st, 10, cleanRow)
	if err := m.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	path := checkpointPath(dir, "m")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if !m.Drop("m") {
		t.Fatal("Drop found no stream")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint survived Drop: %v", err)
	}
	if m.Drop("m") {
		t.Fatal("second Drop found a stream")
	}
	if _, ok := m.Status("m"); ok {
		t.Fatal("status after Drop")
	}
}

// TestCheckpointResume is the crash-recovery contract: Close
// checkpoints, a fresh manager over the same directory resumes with
// identical counters and mines successfully from the restored sums.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	fs := newFakeStore()
	cfg := Config{CheckpointDir: dir, RepublishRows: 40, Seed: 3, Metrics: obs.NewRegistry()}
	m1, err := NewManager(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := m1.Stream("m", 0, false)
	pushN(t, st, 100, cleanRow) // two row-trigger republishes land v1, v2
	want, _ := m1.Status("m")
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Promotions == 0 {
		t.Fatalf("precondition: no promotions before restart: %+v", want)
	}

	cfg.Metrics = obs.NewRegistry()
	m2, err := NewManager(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, ok := m2.Status("m")
	if !ok {
		t.Fatal("stream not resumed")
	}
	// Pending resets across restart (those rows are already inside the
	// saved sums); everything else must survive verbatim.
	want.Pending = 0
	if got != want {
		t.Fatalf("resumed status = %+v, want %+v", got, want)
	}

	st2, err := m2.Stream("m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st2, 10, cleanRow)
	res, err := m2.Republish(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("post-resume republish rejected: %+v", res)
	}
	if got, _ := m2.Status("m"); got.Rows != want.Rows+10 {
		t.Fatalf("resumed rows = %d, want %d", got.Rows, want.Rows+10)
	}
}

// TestCorruptCheckpointSkipped: a torn or garbage sidecar is skipped,
// not fatal, and does not block other streams from loading.
func TestCorruptCheckpointSkipped(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CheckpointDir: dir, Metrics: obs.NewRegistry()}
	m1, err := NewManager(newFakeStore(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := m1.Stream("good", 0, false)
	pushN(t, st, 10, cleanRow)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.stream.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Metrics = obs.NewRegistry()
	m2, err := NewManager(newFakeStore(), cfg)
	if err != nil {
		t.Fatalf("corrupt sidecar broke startup: %v", err)
	}
	defer m2.Close()
	if names := m2.Names(); len(names) != 1 || names[0] != "good" {
		t.Fatalf("resumed streams = %v, want [good]", names)
	}
}

// TestFailedPutSurfacesError: a store failure during promotion is an
// error, and the stream's promotion counter does not advance.
func TestFailedPutSurfacesError(t *testing.T) {
	fs := newFakeStore()
	fs.failPut = errors.New("disk full")
	m := testManager(t, fs, Config{RepublishRows: 1 << 30})
	st, _ := m.Stream("m", 0, false)
	pushN(t, st, 10, cleanRow)
	if _, err := m.Republish(context.Background(), "m"); err == nil {
		t.Fatal("failed Put did not surface")
	}
	status, _ := m.Status("m")
	if status.Promotions != 0 {
		t.Fatalf("promotions = %d after failed put", status.Promotions)
	}
}

// TestConcurrentIngest hammers one stream from many goroutines with the
// row trigger live — the mutex-guarded accumulator and synchronous
// republish path must stay consistent (run under -race).
func TestConcurrentIngest(t *testing.T) {
	fs := newFakeStore()
	m := testManager(t, fs, Config{RepublishRows: 50, ReservoirSize: 64})
	st, _ := m.Stream("m", 0, false)
	var wg sync.WaitGroup
	const workers, rowsPer = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rowsPer; i++ {
				if _, err := st.Push(context.Background(), cleanRow(w*rowsPer+i)); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	status, _ := m.Status("m")
	if status.Rows != workers*rowsPer {
		t.Fatalf("rows = %d, want %d", status.Rows, workers*rowsPer)
	}
	if fs.headVersion("m") == 0 {
		t.Fatal("no promotion despite crossing the row trigger many times")
	}
}
