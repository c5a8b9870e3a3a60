package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ratiorules/internal/core"
	"ratiorules/internal/obs"
)

// walSize stats the live WAL of a store directory.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCrashRecoveryEveryTruncationOffset simulates a crash mid-append
// at every possible byte offset of the final WAL record: for each cut
// point the store must open, truncate the torn tail, and serve exactly
// the last fully-committed state. The first store is never closed —
// copying its fsynced WAL is the crash.
func TestCrashRecoveryEveryTruncationOffset(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	r1, r2 := testRules(t, 2), testRules(t, 3)
	if _, err := st.PutContext(bg, "m", r1); err != nil {
		t.Fatal(err)
	}
	off1 := walSize(t, dir)
	if _, err := st.PutContext(bg, "m", r2); err != nil {
		t.Fatal(err)
	}
	off2 := walSize(t, dir)
	walData, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(walData)) != off2 || off1 <= 0 || off2 <= off1 {
		t.Fatalf("unexpected WAL layout: len=%d off1=%d off2=%d", len(walData), off1, off2)
	}
	want1, want2 := rawOf(t, r1), rawOf(t, r2)

	// reopen writes a truncated WAL copy into a fresh dir and recovers.
	reopen := func(t *testing.T, data []byte) (*Store, string) {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, walFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(d, WithLogger(obs.NopLogger()))
		if err != nil {
			t.Fatalf("recovery must never fail open: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		return st, d
	}

	// Cuts inside the second record: recover to exactly v1.
	for cut := off1; cut < off2; cut++ {
		st2, d := reopen(t, walData[:cut])
		raw, version, ok := getRaw(st2, "m")
		if !ok || version != 1 || !bytes.Equal(raw, want1) {
			t.Fatalf("cut %d: recovered v%d ok=%v byte-equal=%v; want clean v1",
				cut, version, ok, bytes.Equal(raw, want1))
		}
		if got := walSize(t, d); got != off1 {
			t.Fatalf("cut %d: torn tail not truncated: wal size %d, want %d", cut, got, off1)
		}
	}

	// Cuts inside the first record: recover to the empty store.
	for cut := int64(0); cut < off1; cut += 7 { // stride: same code path, 7x fewer subtests
		st2, d := reopen(t, walData[:cut])
		if st2.Len() != 0 {
			t.Fatalf("cut %d: %d models recovered from torn-only WAL", cut, st2.Len())
		}
		if got := walSize(t, d); got != 0 {
			t.Fatalf("cut %d: wal size %d after truncation, want 0", cut, got)
		}
	}

	// The untouched WAL recovers both versions with history intact.
	st2, _ := reopen(t, walData)
	raw, version, ok := getRaw(st2, "m")
	if !ok || version != 2 || !bytes.Equal(raw, want2) {
		t.Fatalf("full WAL: recovered v%d, byte-equal=%v", version, bytes.Equal(raw, want2))
	}
	if old, ok := getVersion(st2, "m", 1); !ok || !bytes.Equal(rawOf(t, old), want1) {
		t.Fatal("full WAL: v1 history lost")
	}

	// A bit flip inside the final record's payload fails the CRC and
	// rolls back to v1 — and the torn-record metric must say so.
	reg := obs.NewRegistry()
	flipped := append([]byte(nil), walData...)
	flipped[off2-2] ^= 0xff
	d := t.TempDir()
	if err := os.WriteFile(filepath.Join(d, walFileName), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(d, WithObs(reg))
	if err != nil {
		t.Fatalf("bit-flip recovery: %v", err)
	}
	defer st3.Close()
	if _, version, _ := st3.Get("m"); version != 1 {
		t.Fatalf("bit-flip: recovered v%d, want v1", version)
	}
	if got := reg.Snapshot()["rr_store_torn_records_total"]; got != 1 {
		t.Errorf("rr_store_torn_records_total = %v, want 1", got)
	}
}

// TestRecoverySkipsSnapshottedEvents covers the crash window between
// snapshot rename and WAL truncate: replaying a WAL whose events are
// already folded into the snapshot must not double-apply them.
func TestRecoverySkipsSnapshottedEvents(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.PutContext(bg, "m", testRules(t, 2))
	st.PutContext(bg, "m", testRules(t, 3))
	walData, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil { // compacts the WAL
		t.Fatal(err)
	}
	// Crash reconstruction: snapshot present AND the pre-compaction WAL.
	if err := os.WriteFile(filepath.Join(dir, walFileName), walData, 0o644); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	infos, ok := st2.Versions("m")
	if !ok || len(infos) != 2 {
		t.Fatalf("double-applied replay: %d revisions, want 2", len(infos))
	}
	if _, version, _ := st2.Get("m"); version != 2 {
		t.Fatalf("head = v%d, want v2", version)
	}
	// The next put must continue the sequence, not collide with it.
	if v, err := st2.PutContext(bg, "m", testRules(t, 4)); err != nil || v != 3 {
		t.Fatalf("put after stale-WAL recovery = v%d, %v", v, err)
	}
}

// TestOpenErrorPaths exercises the unopenable-directory failures (the
// fstest-style error path: the "directory" is not writable because it
// is not a directory at all — permission bits are useless under root,
// which is how CI containers run).
func TestOpenErrorPaths(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); err == nil {
		t.Error("Open under a plain file must fail")
	}
	// wal.log occupied by a directory: the WAL cannot be created.
	dir := filepath.Join(base, "walisdir")
	if err := os.MkdirAll(filepath.Join(dir, walFileName), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open with wal.log as a directory must fail")
	}
	// Corrupt snapshot: hard error, never silently empty.
	dir2 := filepath.Join(base, "badsnap")
	if err := os.MkdirAll(dir2, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, snapshotFileName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2); err == nil {
		t.Error("corrupt snapshot must fail open")
	}
}

// TestOpenBadRules checks that a stored rule set core.Load refuses as
// non-orthonormal takes the undecodable-model path: a hard open error
// naming the model and version in a snapshot, a warn-skip in the WAL.
func TestOpenBadRules(t *testing.T) {
	bad := json.RawMessage(`{"means":[0,0,0],"eigenvalues":[1],"total_variance":1,"trained_rows":10,"vectors":[[0.5],[0.5],[0.5]]}`)

	snapDir := t.TempDir()
	snap, err := json.Marshal(snapshotFile{Format: snapshotFormat, SnapshotDoc: SnapshotDoc{Seq: 1,
		Models: map[string][]SnapshotRev{"m": {{Version: 3, Rules: bad}}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, snapshotFileName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(snapDir)
	if !errors.Is(err, core.ErrBadRules) || !strings.Contains(err.Error(), `"m" v3`) {
		t.Fatalf("snapshot with bad rules: Open = %v, want ErrBadRules naming \"m\" v3", err)
	}

	walDir := t.TempDir()
	payload, err := json.Marshal(Event{Seq: 1, Op: opPut, Name: "m", Version: 1, Rules: bad})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(walDir, walFileName), encodeRecord(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(walDir)
	if err != nil {
		t.Fatalf("WAL with bad rules must open: %v", err)
	}
	defer st.Close()
	if _, _, ok := st.Get("m"); ok {
		t.Fatal("bad rules replayed from the WAL")
	}
}
