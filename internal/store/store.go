// Package store is the durability layer of the Ratio Rules system: an
// embedded, stdlib-only, versioned model store backing the rrserve
// registry and the rrmine -store flag.
//
// Layout of a store directory:
//
//	wal.log        append-only write-ahead log of put/delete events
//	               (length-prefixed JSON records with CRC32 checksums,
//	               fsynced on every commit — see wal.go)
//	snapshot.json  atomic full-state snapshot (write-temp + rename);
//	               writing one compacts the WAL to zero
//
// Every Put of a model creates version n+1; Get serves the latest
// revision, GetVersion a pinned one, and Rollback re-installs a prior
// revision as a new head version (journaled as a plain put, so the
// history is linear and replay stays trivial). Version counters survive
// Delete, so a re-created model never reuses a version number — which
// keeps HTTP ETags derived from versions truthful.
//
// Recovery replays snapshot + WAL tail. A torn or corrupt final record
// — the signature of a crash mid-append — is truncated with a warning;
// the store never fails to open because of a torn tail. Corruption of
// the snapshot itself is a hard error, since snapshots are installed
// atomically and damage there means the disk lied. A failed WAL append
// or fsync at runtime (disk full, I/O error) is rolled back by
// truncating the log to the last committed record, so torn bytes never
// sit mid-log ahead of acknowledged writes; if even that truncation
// fails, the store wedges itself (mutations return ErrFailed, reads
// keep working) rather than risk journaling past damage.
//
// Open takes an exclusive flock on a lock file in the directory, so a
// second process (say, rrmine -store against a live rrserve -data-dir)
// fails fast with ErrLocked instead of corrupting the log. The lock is
// tied to the file description and vanishes with the process, crashed
// or not.
//
// Mutations commit — and periodically snapshot — while holding the
// store mutex, so concurrent reads wait out each commit's fsync (and,
// rarely, a whole-store snapshot). Models change rarely and reads
// dominate, so that simplicity wins at this scale; revisit with
// copy-then-write snapshots if puts ever become hot.
//
// OpenMemory returns the same store without any files behind it: the
// rrserve registry uses that when no -data-dir is given, so versioning
// and rollback behave identically with and without durability.
package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ratiorules/internal/core"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
)

// Sentinel errors mapped onto HTTP statuses by internal/server.
var (
	ErrClosed          = errors.New("store: closed")
	ErrNotFound        = errors.New("store: model not found")
	ErrVersionNotFound = errors.New("store: version not found")
	// ErrLocked: the directory is already open in another process.
	ErrLocked = errors.New("store: directory locked by another process")
	// ErrFailed: a WAL commit failed AND the rollback truncation failed,
	// so the on-disk log may hold torn or unacknowledged bytes. The
	// store refuses further mutations (reads still work); reopening
	// recovers to the last committed state.
	ErrFailed = errors.New("store: failed, reopen to recover")
)

// options collects the Open/OpenMemory knobs.
type options struct {
	snapshotEvery  int
	maxVersions    int
	replicationLog int
	noSync         bool
	metrics        *obs.Registry
	logger         *slog.Logger
}

// Option customizes Open and OpenMemory.
type Option func(*options)

// WithSnapshotEvery sets how many committed events trigger an automatic
// snapshot + WAL compaction (default 64; <= 0 disables automatic
// snapshots, leaving them to explicit Snapshot calls and Close).
func WithSnapshotEvery(n int) Option { return func(o *options) { o.snapshotEvery = n } }

// WithMaxVersions bounds the revisions retained per model (default 32;
// <= 0 keeps every revision). Pruned versions cannot be fetched or
// rolled back to.
func WithMaxVersions(n int) Option { return func(o *options) { o.maxVersions = n } }

// WithNoSync skips fsync on WAL commits — only for tests that churn
// thousands of commits; production stores must not use it.
func WithNoSync() Option { return func(o *options) { o.noSync = true } }

// WithObs records store metrics into r instead of obs.Default().
func WithObs(r *obs.Registry) Option { return func(o *options) { o.metrics = r } }

// WithLogger routes recovery warnings and snapshot logs to l.
func WithLogger(l *slog.Logger) Option { return func(o *options) { o.logger = l } }

// rev is one retained revision of a model. raw is the canonical
// core.Rules JSON (exactly what Rules.Save wrote), kept so GETs serve
// byte-identical documents and rollbacks re-journal without re-encoding.
type rev struct {
	version int
	rules   *core.Rules
	raw     []byte
	// seq is the sequence number of the event that installed this
	// revision (0 when it was loaded from a snapshot, whose events the
	// replication log never holds). Pruning the revision trims the log
	// through it; see install.
	seq uint64
	// ge is an advisory quality annotation (GE₁ measured by the online
	// monitor), in-memory only: it describes a measurement against a
	// transient holdout, not durable model state, so it is never
	// journaled and vanishes on restart like the holdout itself.
	ge    float64
	hasGE bool
}

// model is the retained revision history of one name, ascending by
// version; the last entry is the head.
type model struct {
	revs []rev
}

// VersionInfo describes one retained revision for the versions API.
type VersionInfo struct {
	Version     int  `json:"version"`
	K           int  `json:"k"`
	M           int  `json:"m"`
	TrainedRows int  `json:"trained_rows"`
	Bytes       int  `json:"bytes"`
	Head        bool `json:"head"`
	// GE is the online monitor's last GE₁ measurement for this
	// version, when one exists (see SetVersionGE).
	GE *float64 `json:"ge,omitempty"`
}

// Store is a concurrency-safe versioned model store. Mutations are
// serialized (each commits a WAL record before acknowledging); reads
// run concurrently.
type Store struct {
	dir  string // "" for memory mode
	opts options
	met  *storeMetrics

	mu          sync.RWMutex
	wal         *walWriter // nil in memory mode
	lock        *os.File   // flock guarding dir against other processes
	seq         uint64     // last committed sequence number
	models      map[string]*model
	lastVersion map[string]int // survives Delete; never decreases
	sinceSnap   int            // events since the last snapshot
	closed      bool
	failed      error // non-nil wedges mutations (wraps ErrFailed)

	// Replication: recent committed events retained for follower
	// catch-up (see replication.go). replog covers (replogBase, seq];
	// changed is closed-and-replaced on every commit to wake tailers.
	replog     []Event
	replogBase uint64
	changed    chan struct{}
}

func newStore(dir string, opts []Option) *Store {
	o := options{snapshotEvery: 64, maxVersions: 32, replicationLog: DefaultReplicationLog,
		metrics: obs.Default(), logger: obs.NopLogger()}
	for _, opt := range opts {
		opt(&o)
	}
	return &Store{
		dir:         dir,
		opts:        o,
		met:         newStoreMetrics(o.metrics),
		models:      make(map[string]*model),
		lastVersion: make(map[string]int),
		changed:     make(chan struct{}),
	}
}

// OpenMemory returns a store with no files behind it: full versioning
// semantics, zero durability. It cannot fail.
func OpenMemory(opts ...Option) *Store {
	return newStore("", opts)
}

// Open opens (or creates) a store directory, recovering state from the
// snapshot and WAL. A torn final WAL record is truncated with a warning
// and never prevents opening. The directory is flock-guarded: a second
// Open — from this or any other process — fails with ErrLocked until
// the holder closes (or dies).
func Open(dir string, opts ...Option) (*Store, error) {
	s := newStore(dir, opts)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s.lock = lock
	opened := false
	defer func() {
		if !opened && s.lock != nil {
			s.lock.Close()
		}
	}()
	// A leftover temp file means a snapshot died before rename; the WAL
	// still has everything, so just discard it.
	os.Remove(filepath.Join(dir, snapshotFileName+".tmp"))

	snap, err := loadSnapshot(filepath.Join(dir, snapshotFileName))
	if err != nil {
		return nil, err
	}
	s.seq = snap.Seq
	for name, revs := range snap.Models {
		m := &model{}
		for _, sr := range revs {
			rules, err := core.Load(bytes.NewReader(sr.Rules))
			if err != nil {
				return nil, fmt.Errorf("store: snapshot model %q v%d: %w", name, sr.Version, err)
			}
			m.revs = append(m.revs, rev{version: sr.Version, rules: rules, raw: sr.Rules})
		}
		sort.Slice(m.revs, func(i, j int) bool { return m.revs[i].version < m.revs[j].version })
		s.models[name] = m
	}
	for name, v := range snap.LastVersion {
		s.lastVersion[name] = v
	}

	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading WAL: %w", err)
	}
	events, valid := decodeRecords(data)
	if valid < len(data) {
		s.opts.logger.Warn("truncating torn WAL tail",
			"dir", dir, "offset", valid, "dropped_bytes", len(data)-valid)
		s.met.tornRecords.Inc()
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
		if !s.opts.noSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: syncing truncated WAL: %w", err)
			}
		}
	}
	replayed := 0
	for _, ev := range events {
		if ev.Seq <= snap.Seq {
			continue // already folded into the snapshot
		}
		if err := s.apply(ev); err != nil {
			// CRC-valid but semantically bad: warn and keep the rest.
			s.opts.logger.Warn("skipping unreplayable WAL event",
				"dir", dir, "seq", ev.Seq, "op", ev.Op, "model", ev.Name, "err", err)
			continue
		}
		replayed++
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking WAL tail: %w", err)
	}
	s.wal = &walWriter{f: f, sync: !s.opts.noSync, size: int64(valid)}
	// Replayed events are dirty relative to the snapshot: count them so
	// the periodic compaction still triggers after a crash-loop.
	s.sinceSnap = replayed

	// Recovery replays without journaling, so the replication log starts
	// empty at the recovered head: a follower attached before the
	// restart re-bootstraps from a snapshot.
	s.replogBase = s.seq

	s.met.recoveredRecords.Add(float64(replayed))
	s.met.recoveredModels.Set(float64(len(s.models)))
	s.met.models.Set(float64(len(s.models)))
	s.met.walSizeBytes.Set(float64(valid))
	s.opts.logger.Info("store open",
		"dir", dir, "models", len(s.models), "snapshot_seq", snap.Seq, "replayed", replayed)
	opened = true
	return s, nil
}

// encodeRules returns the canonical compact Rules JSON the store uses
// everywhere (WAL events, snapshots, GetRaw). Compact form matters:
// json.Marshal re-compacts embedded json.RawMessage values, so only a
// compact canonical form survives the journal and snapshot round trips
// byte-for-byte.
func encodeRules(r *core.Rules) ([]byte, error) {
	var indented bytes.Buffer
	if err := r.Save(&indented); err != nil {
		return nil, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented.Bytes()); err != nil {
		return nil, fmt.Errorf("store: canonicalizing rules: %w", err)
	}
	return compact.Bytes(), nil
}

// apply folds one WAL event into the in-memory state (replay path).
func (s *Store) apply(ev walEvent) error {
	s.seq = ev.Seq
	switch ev.Op {
	case opPut:
		rules, err := core.Load(bytes.NewReader(ev.Rules))
		if err != nil {
			return err
		}
		s.install(ev.Name, rev{version: ev.Version, rules: rules, raw: ev.Rules, seq: ev.Seq})
		return nil
	case opDelete:
		delete(s.models, ev.Name)
		return nil
	default:
		return fmt.Errorf("unknown op %q", ev.Op)
	}
}

// install appends a revision to a model's history, pruning beyond the
// retention bound, and advances the name's version counter. Pruning
// also trims the replication log through the newest pruned revision's
// event: a follower that has not applied that event can no longer
// rebuild the retained history from events, so it needs a snapshot
// whatever the log holds. The log thus keeps at most maxVersions puts
// of any one model, however large the replicationLog bound. Callers
// hold s.mu and have journaled the event r carries.
func (s *Store) install(name string, r rev) {
	m := s.models[name]
	if m == nil {
		m = &model{}
		s.models[name] = m
	}
	m.revs = append(m.revs, r)
	if limit := s.opts.maxVersions; limit > 0 && len(m.revs) > limit {
		pruned := len(m.revs) - limit
		s.trimReplog(m.revs[pruned-1].seq)
		m.revs = append(m.revs[:0], m.revs[pruned:]...)
	}
	if r.version > s.lastVersion[name] {
		s.lastVersion[name] = r.version
	}
}

// journal commits one event to the WAL (no-op in memory mode) and
// advances the sequence counter. On append or fsync failure the log is
// truncated back to its pre-append size, so the file always ends at the
// last acknowledged record and the caller can simply retry (reusing the
// same seq and version, since neither advanced). If the truncation
// itself fails the store wedges: every later mutation returns ErrFailed
// rather than appending past torn bytes that recovery would stop at.
// Callers hold s.mu.
func (s *Store) journal(ctx context.Context, ev walEvent) error {
	// Stamp the committing request's trace onto the event (replicated
	// applies arrive pre-stamped with the LEADER's trace and a traceless
	// ctx, so an existing stamp is never overwritten): followers parent
	// their replica.apply spans on it.
	if ev.Trace == "" {
		if tid, sid, ok := trace.FromContext(ctx); ok {
			ev.Trace = trace.Traceparent(tid, sid)
		}
	}
	if s.wal != nil {
		payload, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("store: encoding WAL event: %w", err)
		}
		prevSize := s.wal.size
		_, appendSpan := trace.Start(ctx, "wal.append")
		appendSpan.SetAttr("bytes", len(payload))
		n, err := s.wal.append(payload)
		appendSpan.End()
		if err == nil {
			// commit is the fsync half of the WAL write — the span that
			// shows up when the disk, not the solve, is the bottleneck.
			_, fsyncSpan := trace.Start(ctx, "wal.fsync")
			err = s.wal.commit()
			fsyncSpan.End()
		}
		if err != nil {
			if rbErr := s.wal.rollback(prevSize); rbErr != nil {
				s.failed = fmt.Errorf("%w: WAL rollback: %v (after commit error: %v)", ErrFailed, rbErr, err)
				s.opts.logger.Error("store failed: torn WAL could not be rolled back",
					"dir", s.dir, "commit_err", err, "rollback_err", rbErr)
				s.met.walFailures.Inc()
				return fmt.Errorf("store: committing WAL record: %w", err)
			}
			s.met.walSizeBytes.Set(float64(s.wal.size))
			return fmt.Errorf("store: committing WAL record: %w", err)
		}
		if s.wal.sync {
			s.met.fsyncs.Inc()
		}
		s.met.appends.With(ev.Op).Inc()
		s.met.walWrittenBytes.Add(float64(n))
		s.met.walSizeBytes.Set(float64(s.wal.size))
	} else {
		s.met.appends.With(ev.Op).Inc()
	}
	s.seq = ev.Seq
	s.sinceSnap++
	s.appendReplog(ev)
	s.notifyChanged()
	return nil
}

// Put stores rules under name as a new head version and returns it.
// The mutation is durable (WAL-committed) before Put returns.
func (s *Store) Put(name string, rules *core.Rules) (int, error) {
	return s.PutContext(context.Background(), name, rules)
}

// PutContext is Put with trace spans: a "store.put" span covers the
// whole mutation, with "wal.append"/"wal.fsync" children from the
// journal and a "store.snapshot" child when the put trips the periodic
// compaction.
func (s *Store) PutContext(ctx context.Context, name string, rules *core.Rules) (int, error) {
	if name == "" {
		return 0, errors.New("store: empty model name")
	}
	if rules == nil {
		return 0, errors.New("store: nil rules")
	}
	ctx, sp := trace.Start(ctx, "store.put")
	defer sp.End()
	sp.SetAttr("model", name)
	raw, err := encodeRules(rules)
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.failed != nil {
		return 0, s.failed
	}
	version := s.lastVersion[name] + 1
	sp.SetAttr("version", version)
	if err := s.journal(ctx, walEvent{Seq: s.seq + 1, Op: opPut, Name: name, Version: version, Rules: raw}); err != nil {
		return 0, err
	}
	s.install(name, rev{version: version, rules: rules, raw: raw, seq: s.seq})
	s.met.models.Set(float64(len(s.models)))
	s.maybeSnapshot(ctx)
	return version, nil
}

// Delete removes a model (its whole history), reporting whether it
// existed. The version counter for the name is retained so a future
// re-create continues from version n+1.
func (s *Store) Delete(name string) (bool, error) {
	return s.DeleteContext(context.Background(), name)
}

// DeleteContext is Delete with a "store.delete" trace span (children as
// in PutContext).
func (s *Store) DeleteContext(ctx context.Context, name string) (bool, error) {
	ctx, sp := trace.Start(ctx, "store.delete")
	defer sp.End()
	sp.SetAttr("model", name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if s.failed != nil {
		return false, s.failed
	}
	if _, ok := s.models[name]; !ok {
		return false, nil
	}
	if err := s.journal(ctx, walEvent{Seq: s.seq + 1, Op: opDelete, Name: name}); err != nil {
		return false, err
	}
	delete(s.models, name)
	s.met.models.Set(float64(len(s.models)))
	s.maybeSnapshot(ctx)
	return true, nil
}

// Rollback re-installs retained version v of name as a new head
// version, returning the restored rules and the new head's number (the
// pair is taken under the store lock, so it cannot mix revisions with a
// concurrent Put). It is journaled as a plain put, so history stays
// linear: rolling back never erases revisions.
func (s *Store) Rollback(name string, version int) (*core.Rules, int, error) {
	return s.RollbackContext(context.Background(), name, version)
}

// RollbackContext is Rollback with a "store.rollback" trace span
// (children as in PutContext).
func (s *Store) RollbackContext(ctx context.Context, name string, version int) (*core.Rules, int, error) {
	ctx, sp := trace.Start(ctx, "store.rollback")
	defer sp.End()
	sp.SetAttr("model", name)
	sp.SetAttr("to_version", version)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	if s.failed != nil {
		return nil, 0, s.failed
	}
	m := s.models[name]
	if m == nil {
		return nil, 0, fmt.Errorf("model %q: %w", name, ErrNotFound)
	}
	var target rev
	found := false
	for _, r := range m.revs {
		if r.version == version {
			target, found = r, true
			break
		}
	}
	if !found {
		return nil, 0, fmt.Errorf("model %q version %d: %w", name, version, ErrVersionNotFound)
	}
	newVersion := s.lastVersion[name] + 1
	if err := s.journal(ctx, walEvent{Seq: s.seq + 1, Op: opPut, Name: name, Version: newVersion, Rules: target.raw}); err != nil {
		return nil, 0, err
	}
	s.install(name, rev{version: newVersion, rules: target.rules, raw: target.raw, seq: s.seq})
	s.maybeSnapshot(ctx)
	return target.rules, newVersion, nil
}

// Get returns the head revision of a model and its version.
func (s *Store) Get(name string) (*core.Rules, int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.models[name]
	if m == nil || len(m.revs) == 0 {
		return nil, 0, false
	}
	head := m.revs[len(m.revs)-1]
	return head.rules, head.version, true
}

// GetRaw returns the head revision's canonical Rules JSON (exactly the
// bytes Rules.Save produced) and its version.
func (s *Store) GetRaw(name string) ([]byte, int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.models[name]
	if m == nil || len(m.revs) == 0 {
		return nil, 0, false
	}
	head := m.revs[len(m.revs)-1]
	return head.raw, head.version, true
}

// GetVersion returns a pinned retained revision.
func (s *Store) GetVersion(name string, version int) (*core.Rules, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.models[name]
	if m == nil {
		return nil, false
	}
	for _, r := range m.revs {
		if r.version == version {
			return r.rules, true
		}
	}
	return nil, false
}

// GetVersionRaw returns a pinned retained revision's canonical Rules
// JSON, so version-pinned model GETs serve the exact bytes the revision
// was journaled with.
func (s *Store) GetVersionRaw(name string, version int) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.models[name]
	if m == nil {
		return nil, false
	}
	for _, r := range m.revs {
		if r.version == version {
			return r.raw, true
		}
	}
	return nil, false
}

// Versions lists the retained revisions of a model, ascending, with the
// head flagged. ok is false when the model does not exist.
func (s *Store) Versions(name string) (infos []VersionInfo, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.models[name]
	if m == nil {
		return nil, false
	}
	infos = make([]VersionInfo, len(m.revs))
	for i, r := range m.revs {
		infos[i] = VersionInfo{
			Version:     r.version,
			K:           r.rules.K(),
			M:           r.rules.M(),
			TrainedRows: r.rules.TrainedRows(),
			Bytes:       len(r.raw),
			Head:        i == len(m.revs)-1,
		}
		if r.hasGE {
			ge := r.ge
			infos[i].GE = &ge
		}
	}
	return infos, true
}

// SetVersionGE attaches the online monitor's GE₁ measurement to a
// retained revision. Advisory and in-memory only (never journaled);
// unknown names or pruned versions are ignored.
func (s *Store) SetVersionGE(name string, version int, ge float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.models[name]
	if m == nil {
		return
	}
	for i := range m.revs {
		if m.revs[i].version == version {
			m.revs[i].ge = ge
			m.revs[i].hasGE = true
			return
		}
	}
}

// VersionGE reads a revision's GE annotation, ok=false when none was
// ever recorded (or the version is gone).
func (s *Store) VersionGE(name string, version int) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.models[name]
	if m == nil {
		return 0, false
	}
	for _, r := range m.revs {
		if r.version == version {
			return r.ge, r.hasGE
		}
	}
	return 0, false
}

// Failed reports the wedge state: non-nil (wrapping ErrFailed) when a
// WAL rollback failed and the store refuses mutations. The readiness
// probe keys off this.
func (s *Store) Failed() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.failed
}

// Names lists live model names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.models))
	for n := range s.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of live models.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.models)
}

// Snapshot writes a full-state snapshot and compacts the WAL.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.snapshotLocked(context.Background())
}

// maybeSnapshot runs the periodic compaction. Failures are logged, not
// returned: the WAL still holds every committed event, so the caller's
// mutation is safe regardless. Callers hold s.mu.
func (s *Store) maybeSnapshot(ctx context.Context) {
	if s.wal == nil || s.opts.snapshotEvery <= 0 || s.sinceSnap < s.opts.snapshotEvery {
		return
	}
	if err := s.snapshotLocked(ctx); err != nil {
		s.opts.logger.Warn("periodic snapshot failed; WAL retains the data", "dir", s.dir, "err", err)
		s.met.snapshotErrors.Inc()
		s.sinceSnap = 0 // back off rather than retry on every event
	}
}

// snapshotLocked does the snapshot + compact dance under s.mu.
func (s *Store) snapshotLocked(ctx context.Context) error {
	if s.wal == nil {
		s.sinceSnap = 0
		return nil // memory mode: nothing to persist
	}
	timer := obs.NewTimer(s.met.snapshotSeconds)
	_, snapSpan := trace.Start(ctx, "store.snapshot")
	defer snapSpan.End()
	snap := &snapshotFile{
		Format:      snapshotFormat,
		Seq:         s.seq,
		Models:      make(map[string][]snapRev, len(s.models)),
		LastVersion: make(map[string]int, len(s.lastVersion)),
	}
	for name, m := range s.models {
		revs := make([]snapRev, len(m.revs))
		for i, r := range m.revs {
			revs[i] = snapRev{Version: r.version, Rules: r.raw}
		}
		snap.Models[name] = revs
	}
	for name, v := range s.lastVersion {
		snap.LastVersion[name] = v
	}
	if err := writeSnapshot(s.dir, snap); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return fmt.Errorf("store: compacting WAL: %w", err)
	}
	if s.wal.sync {
		s.met.fsyncs.Inc()
	}
	s.sinceSnap = 0
	s.met.snapshots.Inc()
	s.met.walSizeBytes.Set(0)
	elapsed := timer.ObserveDuration()
	s.opts.logger.Info("snapshot written",
		"dir", s.dir, "models", len(s.models), "seq", s.seq, "duration", elapsed)
	return nil
}

// Close flushes a final snapshot (compacting the WAL so the next open
// is O(snapshot)) and closes the log. Close is idempotent; mutations
// after Close return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	var firstErr error
	if s.sinceSnap > 0 {
		if err := s.snapshotLocked(context.Background()); err != nil {
			firstErr = err
		}
	}
	if err := s.wal.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.wal = nil
	if s.lock != nil {
		if err := s.lock.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.lock = nil
	}
	return firstErr
}
