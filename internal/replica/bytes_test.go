package replica

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ratiorules/internal/core"
	"ratiorules/internal/store"
)

// fixedRules loads a hand-written 2-attribute rule set, so the bytes
// below depend on no solver arithmetic, only on the codecs under test.
func fixedRules(t *testing.T, n int) *core.Rules {
	t.Helper()
	doc := fmt.Sprintf(`{"attrs":["a","b"],"means":[%d,%d.5],"eigenvalues":[%d,0.25],`+
		`"total_variance":%d.25,"trained_rows":%d,"vectors":[[0.6,-0.8],[0.8,0.6]]}`, n, 2*n, n+1, n+1, 10*n)
	r, err := core.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestStoreBytesStable pins the bytes a durable store writes for one
// fixed history (puts on two names, a rollback, a delete, then a put):
// the WAL, the snapshot.json Snapshot writes, and the RRE1/RRS1 frames
// a leader ships for those events and its SnapshotDoc. Disk and wire
// formats are shared with older releases and with followers mid rolling
// upgrade, so any change here is a format change. The reopened store
// must then serve the same head bytes at the same seq.
func TestStoreBytesStable(t *testing.T) {
	const (
		wantWAL    = "da87ea76c77d3792b4e313f604ee6f65585ae27ed0eb3239db61213c88b7e401"
		wantSnap   = "6c925a6066dd5036ca286c4aad7caaa99bbf5fb62159c00646b1ff5d86735e18"
		wantFrames = "485bd8836c37f4f9087f2e029f706768eaca1071588df808e22c7ff5121d685f"
	)
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	steps := []func() error{
		func() error { _, err := st.PutContext(ctx, "a", fixedRules(t, 1)); return err },
		func() error { _, err := st.PutContext(ctx, "a", fixedRules(t, 2)); return err },
		func() error { _, err := st.PutContext(ctx, "b", fixedRules(t, 3)); return err },
		func() error { _, _, err := st.RollbackContext(ctx, "a", 1); return err },
		func() error { _, err := st.DeleteContext(ctx, "b"); return err },
		func() error { _, err := st.PutContext(ctx, "b", fixedRules(t, 4)); return err },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := st.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(steps) {
		t.Fatalf("%d events for %d steps", len(events), len(steps))
	}
	var frames []byte
	for _, ev := range events {
		if frames, err = AppendEvent(frames, ev); err != nil {
			t.Fatal(err)
		}
	}
	if frames, err = AppendSnapshot(frames, st.SnapshotDoc()); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, got, want string }{
		{"wal.log", sha(wal), wantWAL},
		{"snapshot.json", sha(snap), wantSnap},
		{"replication frames", sha(frames), wantFrames},
	} {
		if c.got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.what, c.got, c.want)
		}
	}

	type head struct {
		version int
		raw     string
	}
	heads := func(st *store.Store) map[string]head {
		out := map[string]head{}
		for _, name := range st.Names() {
			raw, v, ok := getRaw(st, name)
			if !ok {
				t.Fatalf("%s listed but has no head", name)
			}
			out[name] = head{v, string(raw)}
		}
		return out
	}
	seq, before := st.Seq(), heads(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(dir, store.WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Seq() != seq {
		t.Errorf("reopened seq = %d, want %d", re.Seq(), seq)
	}
	if got := re.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("reopened names = %v", got)
	}
	if after := heads(re); !reflect.DeepEqual(after, before) {
		t.Errorf("reopened heads = %v, want %v", after, before)
	}
	if before["a"].version != 3 || before["b"].version != 2 {
		t.Errorf("head versions a=%d b=%d, want 3 and 2", before["a"].version, before["b"].version)
	}
}
