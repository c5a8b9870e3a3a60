package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// flakyFile wraps the live WAL file, failing injected operations so
// tests can drive the append/commit error paths end to end.
type flakyFile struct {
	walFile
	failNextWrite bool // write half the bytes, then error (the ENOSPC shape)
	failNextSync  bool
	failTruncate  bool
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.failNextWrite {
		f.failNextWrite = false
		n, _ := f.walFile.Write(p[:len(p)/2])
		return n, errors.New("injected: short write")
	}
	return f.walFile.Write(p)
}

func (f *flakyFile) Sync() error {
	if f.failNextSync {
		f.failNextSync = false
		return errors.New("injected: fsync failed")
	}
	return f.walFile.Sync()
}

func (f *flakyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected: truncate failed")
	}
	return f.walFile.Truncate(size)
}

// TestShortWriteRolledBack injects a partial append and requires the
// log to be truncated back to the last committed record, so commits
// before AND after the failure both survive crash recovery — the
// "never silently drops an acknowledged write" invariant. Without the
// rollback, the torn bytes would sit mid-log and recovery would stop
// there, discarding the later acknowledged put.
func TestShortWriteRolledBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithSnapshotEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r1, r3 := testRules(t, 2), testRules(t, 4)
	if _, err := st.PutContext(bg, "m", r1); err != nil {
		t.Fatal(err)
	}
	off1 := walSize(t, dir)

	st.wal.f = &flakyFile{walFile: st.wal.f, failNextWrite: true}
	if _, err := st.PutContext(bg, "m", testRules(t, 3)); err == nil {
		t.Fatal("put with failing write must error")
	}
	if got := walSize(t, dir); got != off1 {
		t.Fatalf("torn bytes left in log: size %d, want %d", got, off1)
	}

	// The failed put was never acknowledged, so the next one takes v2.
	if v, err := st.PutContext(bg, "m", r3); err != nil || v != 2 {
		t.Fatalf("put after rollback = v%d, %v; want v2", v, err)
	}

	// Crash (no Close): the on-disk WAL alone must recover both commits.
	walData, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	d2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(d2, walFileName), walData, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(d2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	raw, version, ok := getRaw(st2, "m")
	if !ok || version != 2 || !bytes.Equal(raw, rawOf(t, r3)) {
		t.Fatalf("recovered head = v%d ok=%v; want clean v2", version, ok)
	}
	if old, ok := getVersion(st2, "m", 1); !ok || !bytes.Equal(rawOf(t, old), rawOf(t, r1)) {
		t.Error("commit before the failed append was lost")
	}
}

// TestFailedSyncDoesNotDuplicateVersions injects an fsync failure after
// a complete record hit the file: the record must be rolled back so the
// retried put — which reuses the same seq and version, since neither
// advanced — does not leave two replayable records for one version.
func TestFailedSyncDoesNotDuplicateVersions(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithSnapshotEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.PutContext(bg, "m", testRules(t, 2)); err != nil {
		t.Fatal(err)
	}
	off1 := walSize(t, dir)

	st.wal.f = &flakyFile{walFile: st.wal.f, failNextSync: true}
	r2 := testRules(t, 3)
	if _, err := st.PutContext(bg, "m", r2); err == nil {
		t.Fatal("put must fail when the WAL fsync fails")
	}
	if got := walSize(t, dir); got != off1 {
		t.Fatalf("unacknowledged record left in log: size %d, want %d", got, off1)
	}
	if v, err := st.PutContext(bg, "m", r2); err != nil || v != 2 {
		t.Fatalf("retried put = v%d, %v; want v2", v, err)
	}

	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	events, valid := decodeRecords(data)
	if valid != len(data) {
		t.Fatalf("log has torn bytes: %d valid of %d", valid, len(data))
	}
	seen := map[int]int{}
	for _, ev := range events {
		if ev.Op == opPut && ev.Name == "m" {
			seen[ev.Version]++
		}
	}
	if len(seen) != 2 || seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("journaled put versions = %v, want exactly one v1 and one v2", seen)
	}
}

// TestRollbackFailureWedgesStore: when the post-failure truncation
// itself fails, the log may hold torn or unacknowledged bytes, so the
// store must refuse further mutations with ErrFailed while reads keep
// serving the in-memory state.
func TestRollbackFailureWedgesStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.PutContext(bg, "m", testRules(t, 2)); err != nil {
		t.Fatal(err)
	}

	st.wal.f = &flakyFile{walFile: st.wal.f, failNextSync: true, failTruncate: true}
	if _, err := st.PutContext(bg, "m", testRules(t, 3)); err == nil {
		t.Fatal("put must fail when fsync fails")
	}
	if _, err := st.PutContext(bg, "m", testRules(t, 3)); !errors.Is(err, ErrFailed) {
		t.Fatalf("put on failed store = %v, want ErrFailed", err)
	}
	if _, err := st.DeleteContext(bg, "m"); !errors.Is(err, ErrFailed) {
		t.Fatalf("delete on failed store = %v, want ErrFailed", err)
	}
	if _, _, err := st.RollbackContext(bg, "m", 1); !errors.Is(err, ErrFailed) {
		t.Fatalf("rollback on failed store = %v, want ErrFailed", err)
	}
	if _, version, ok := st.Get("m"); !ok || version != 1 {
		t.Errorf("reads must survive a failed store: v%d ok=%v", version, ok)
	}
}
