package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
)

// testRules mines a tiny 2-attribute rule set with slope controlling
// the b:a ratio, so distinct slopes yield distinct (byte-distinct)
// models.
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

// rawOf returns the store's canonical (compact) JSON of a rule set.
func rawOf(t testing.TB, r *core.Rules) []byte {
	t.Helper()
	raw, err := encodeRules(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestPutGetVersioning(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	r1, r2 := testRules(t, 2), testRules(t, 3)
	if v, err := st.Put("m", r1); err != nil || v != 1 {
		t.Fatalf("first put = v%d, %v; want v1", v, err)
	}
	if v, err := st.Put("m", r2); err != nil || v != 2 {
		t.Fatalf("second put = v%d, %v; want v2", v, err)
	}
	rules, version, ok := st.Get("m")
	if !ok || version != 2 {
		t.Fatalf("Get head = v%d, ok=%v; want v2", version, ok)
	}
	if !reflect.DeepEqual(rawOf(t, rules), rawOf(t, r2)) {
		t.Error("head is not the second put")
	}
	if old, ok := st.GetVersion("m", 1); !ok || !bytes.Equal(rawOf(t, old), rawOf(t, r1)) {
		t.Error("pinned v1 not retrievable")
	}
	if _, ok := st.GetVersion("m", 99); ok {
		t.Error("phantom version retrievable")
	}
	infos, ok := st.Versions("m")
	if !ok || len(infos) != 2 {
		t.Fatalf("Versions = %v, ok=%v", infos, ok)
	}
	if infos[0].Version != 1 || infos[0].Head || infos[1].Version != 2 || !infos[1].Head {
		t.Errorf("version metadata wrong: %+v", infos)
	}
	if infos[1].K != r2.K() || infos[1].M != 2 || infos[1].TrainedRows != 20 || infos[1].Bytes == 0 {
		t.Errorf("head info = %+v", infos[1])
	}
	if names := st.Names(); len(names) != 1 || names[0] != "m" || st.Len() != 1 {
		t.Errorf("Names = %v, Len = %d", names, st.Len())
	}
}

func TestDeleteKeepsVersionCounter(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, err := st.Put("m", testRules(t, 2)); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Delete("m"); !ok || err != nil {
		t.Fatalf("delete = %v, %v", ok, err)
	}
	if ok, err := st.Delete("m"); ok || err != nil {
		t.Fatalf("double delete = %v, %v", ok, err)
	}
	if _, _, ok := st.Get("m"); ok {
		t.Fatal("deleted model still served")
	}
	// Version numbering must never restart — ETags derived from it
	// would otherwise collide with pre-delete caches.
	if v, err := st.Put("m", testRules(t, 3)); err != nil || v != 2 {
		t.Fatalf("re-created model = v%d, %v; want v2", v, err)
	}
}

func TestRollback(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	r1, r2 := testRules(t, 2), testRules(t, 3)
	st.Put("m", r1)
	st.Put("m", r2)
	restored, newV, err := st.Rollback("m", 1)
	if err != nil || newV != 3 {
		t.Fatalf("rollback = v%d, %v; want v3", newV, err)
	}
	if !bytes.Equal(rawOf(t, restored), rawOf(t, r1)) {
		t.Error("rollback did not return the restored revision")
	}
	raw, version, ok := st.GetRaw("m")
	if !ok || version != 3 || !bytes.Equal(raw, rawOf(t, r1)) {
		t.Fatalf("head after rollback: v%d ok=%v, bytes match=%v", version, ok, bytes.Equal(raw, rawOf(t, r1)))
	}
	if infos, _ := st.Versions("m"); len(infos) != 3 {
		t.Errorf("rollback must extend history, got %d revisions", len(infos))
	}

	if _, _, err := st.Rollback("nope", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("rollback of unknown model: %v", err)
	}
	if _, _, err := st.Rollback("m", 42); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("rollback to unknown version: %v", err)
	}
}

func TestReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2, r3 := testRules(t, 2), testRules(t, 3), testRules(t, 4)
	st.Put("a", r1)
	st.Put("a", r2)
	st.Put("b", r3)
	st.Delete("b")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if names := st2.Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("reopened names = %v", names)
	}
	raw, version, ok := st2.GetRaw("a")
	if !ok || version != 2 || !bytes.Equal(raw, rawOf(t, r2)) {
		t.Fatalf("reopened head: v%d, byte-equal=%v", version, bytes.Equal(raw, rawOf(t, r2)))
	}
	if old, ok := st2.GetVersion("a", 1); !ok || !bytes.Equal(rawOf(t, old), rawOf(t, r1)) {
		t.Error("reopened store lost v1 history")
	}
	// Deleted b's counter survives the reopen too.
	if v, err := st2.Put("b", r3); err != nil || v != 2 {
		t.Errorf("b after reopen = v%d, %v; want v2", v, err)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithSnapshotEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	st.Put("a", testRules(t, 2))
	walPath := filepath.Join(dir, walFileName)
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("WAL empty before snapshot threshold: %v", err)
	}
	st.Put("a", testRules(t, 3)) // second event triggers the snapshot
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not compacted after snapshot: size=%d err=%v", fi.Size(), err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, version, ok := st2.Get("a"); !ok || version != 2 {
		t.Fatalf("post-compaction reopen: v%d ok=%v", version, ok)
	}
	if infos, _ := st2.Versions("a"); len(infos) != 2 {
		t.Errorf("history lost in snapshot: %d revisions", len(infos))
	}
}

func TestMemoryStore(t *testing.T) {
	st := OpenMemory()
	if v, err := st.Put("m", testRules(t, 2)); err != nil || v != 1 {
		t.Fatalf("memory put = v%d, %v", v, err)
	}
	if _, _, err := st.Rollback("m", 1); err != nil {
		t.Fatalf("memory rollback: %v", err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatalf("memory snapshot must be a no-op, got %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("m", testRules(t, 2)); err != ErrClosed {
		t.Errorf("put after close = %v, want ErrClosed", err)
	}
	if _, err := st.Delete("m"); err != ErrClosed {
		t.Errorf("delete after close = %v, want ErrClosed", err)
	}
}

func TestPutValidation(t *testing.T) {
	st := OpenMemory()
	defer st.Close()
	if _, err := st.Put("", testRules(t, 2)); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := st.Put("m", nil); err == nil {
		t.Error("nil rules accepted")
	}
}

func TestMaxVersionsPruning(t *testing.T) {
	st, err := Open(t.TempDir(), WithMaxVersions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Put("m", testRules(t, 2))
	st.Put("m", testRules(t, 3))
	st.Put("m", testRules(t, 4))
	infos, _ := st.Versions("m")
	if len(infos) != 2 || infos[0].Version != 2 || infos[1].Version != 3 {
		t.Fatalf("retained = %+v, want v2,v3", infos)
	}
	if _, ok := st.GetVersion("m", 1); ok {
		t.Error("pruned version still retrievable")
	}
	if _, _, err := st.Rollback("m", 1); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("rollback to pruned version: %v", err)
	}
}

// TestConcurrentAccess exercises the store under the race detector
// (make verify runs this package race-enabled three times).
func TestConcurrentAccess(t *testing.T) {
	st, err := Open(t.TempDir(), WithNoSync(), WithSnapshotEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rules := testRules(t, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", g)
			for i := 0; i < 25; i++ {
				if _, err := st.Put(name, rules); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				st.Get(name)
				st.GetRaw(name)
				st.Versions(name)
				st.Names()
				if i%5 == 4 {
					if _, err := st.Delete(name); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
