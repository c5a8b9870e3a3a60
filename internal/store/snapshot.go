package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ratiorules/internal/core"
)

// snapshotFormat versions the snapshot schema for forward compatibility.
const snapshotFormat = 1

const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.json"
	lockFileName     = "lock"
)

// SnapshotRev is one retained revision inside a SnapshotDoc.
type SnapshotRev struct {
	Version int             `json:"version"`
	Rules   json.RawMessage `json:"rules"`
}

// SnapshotDoc is the full store state as of Seq: the payload a leader
// ships to bootstrap a follower and, wrapped in snapshotFile, the
// on-disk snapshot. WAL events with seq <= Seq are already folded in
// and are skipped on replay. LastVersion outlives deletes so a
// re-created model continues its version counter and ETags never
// repeat. GE annotations are advisory and in-memory only; they are not
// part of it.
type SnapshotDoc struct {
	Seq         uint64                   `json:"seq"`
	Models      map[string][]SnapshotRev `json:"models"`
	LastVersion map[string]int           `json:"last_version,omitempty"`
}

// snapshotFile is snapshot.json: a SnapshotDoc with its schema version
// in front.
type snapshotFile struct {
	Format int `json:"format"`
	SnapshotDoc
}

// state is the model state a SnapshotDoc describes; Store embeds it.
type state struct {
	seq         uint64                // last committed sequence number
	models      map[string][]Revision // retained revisions, ascending by version
	lastVersion map[string]int        // survives Delete; never decreases
}

// loadDoc is the loader behind both Open and RestoreSnapshot. It
// decodes every revision of doc, sorts each model's revisions by
// version and raises each name's version counter to its newest
// revision, and returns the resulting state without touching any
// store: a torn or corrupt doc fails closed. A model with no
// revisions, an empty name, a version that is not positive or appears
// twice, or a negative version counter is corrupt.
func loadDoc(doc *SnapshotDoc) (state, error) {
	st := state{
		seq:         doc.Seq,
		models:      make(map[string][]Revision, len(doc.Models)),
		lastVersion: make(map[string]int, len(doc.LastVersion)),
	}
	for name, v := range doc.LastVersion {
		if v < 0 {
			// The next put would journal version v+1, which replay skips.
			return state{}, fmt.Errorf("store: snapshot version counter %q = %d", name, v)
		}
		st.lastVersion[name] = v
	}
	for name, srs := range doc.Models {
		if name == "" || len(srs) == 0 {
			return state{}, fmt.Errorf("store: snapshot model %q: empty name or no revisions", name)
		}
		revs := make([]Revision, len(srs))
		for i, sr := range srs {
			rules, err := core.Load(bytes.NewReader(sr.Rules))
			if err != nil {
				return state{}, fmt.Errorf("store: snapshot model %q v%d: %w", name, sr.Version, err)
			}
			revs[i] = Revision{Version: sr.Version, Rules: rules, Raw: sr.Rules}
		}
		sort.Slice(revs, func(i, j int) bool { return revs[i].Version < revs[j].Version })
		for i, r := range revs {
			if r.Version <= 0 || (i > 0 && r.Version == revs[i-1].Version) {
				return state{}, fmt.Errorf("store: snapshot model %q: bad or repeated version %d", name, r.Version)
			}
		}
		st.models[name] = revs
		st.lastVersion[name] = max(st.lastVersion[name], revs[len(revs)-1].Version)
	}
	return st, nil
}

// loadSnapshot reads the snapshot if present; a missing file yields an
// empty state. A corrupt snapshot is a hard error: snapshot writes are
// atomic (temp + rename), so damage here means real disk trouble and
// silently starting empty would discard committed data.
func loadSnapshot(path string) (*SnapshotDoc, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &SnapshotDoc{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot %s: %w", path, err)
	}
	if snap.Format != snapshotFormat {
		return nil, fmt.Errorf("store: snapshot format %d, want %d", snap.Format, snapshotFormat)
	}
	return &snap.SnapshotDoc, nil
}

// writeSnapshot atomically replaces the snapshot: write to a temp file
// in the same directory, fsync it, rename over the target, then fsync
// the directory so the rename itself is durable.
func writeSnapshot(dir string, doc *SnapshotDoc) error {
	data, err := json.Marshal(snapshotFile{Format: snapshotFormat, SnapshotDoc: *doc})
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	path := filepath.Join(dir, snapshotFileName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing snapshot temp: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Not all platforms support fsync on directories; that is best-effort.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
