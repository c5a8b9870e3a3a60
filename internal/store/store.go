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
// Every put of a model creates version n+1; Revision serves the head
// (version 0) or a pinned retained revision, and a rollback re-installs
// a prior revision as a new head version (journaled as a plain put, so
// the history is linear and replay stays trivial). Version counters survive
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

// Revision is one retained revision of a model.
type Revision struct {
	Version int
	Rules   *core.Rules
	// Raw is the canonical core.Rules JSON (exactly what Rules.Save
	// wrote, compacted), kept so GETs serve byte-identical documents and
	// rollbacks re-journal without re-encoding. It is the store's own
	// copy: callers must not modify it.
	Raw []byte
	// GE is an advisory quality annotation (GE₁ measured by the online
	// monitor, see SetVersionGE), nil when none was recorded. It is
	// in-memory only: it describes a measurement against a transient
	// holdout, not durable model state, so it is never journaled and
	// vanishes on restart like the holdout itself.
	GE *float64
	// seq is the sequence number of the event that installed this
	// revision (0 when it was loaded from a snapshot, whose events the
	// replication log never holds). Pruning the revision trims the log
	// through it; see install.
	seq uint64
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

	mu sync.RWMutex
	state
	wal       *walWriter // nil in memory mode
	lock      *os.File   // flock guarding dir against other processes
	sinceSnap int        // events since the last snapshot
	closed    bool
	failed    error // non-nil wedges mutations (wraps ErrFailed)

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
		dir:     dir,
		opts:    o,
		met:     newStoreMetrics(o.metrics),
		state:   state{models: make(map[string][]Revision), lastVersion: make(map[string]int)},
		changed: make(chan struct{}),
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
	if s.state, err = loadDoc(snap); err != nil {
		return nil, err
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
		s.seq = ev.Seq
		rules, err := ev.check()
		if err == nil {
			err = s.follows(ev)
		}
		if err != nil {
			// CRC-valid but semantically bad: warn and keep the rest.
			s.opts.logger.Warn("skipping unreplayable WAL event",
				"dir", dir, "seq", ev.Seq, "op", ev.Op, "model", ev.Name, "err", err)
			continue
		}
		s.apply(ev, rules)
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
// everywhere (WAL events, snapshots, Revision.Raw). Compact form matters:
// json.Marshal re-compacts embedded json.RawMessage values, so only a
// compact canonical form survives the journal and snapshot round trips
// byte-for-byte. It calls MarshalJSON itself: json.Marshal of the rules
// would compact its output a second time.
func encodeRules(r *core.Rules) ([]byte, error) { return r.MarshalJSON() }

// apply folds a checked event into the in-memory state: a put installs
// its rules as revision ev.Version, a delete drops the name's history.
// WAL replay, ApplyEvent and every local mutation end here. Callers
// hold s.mu and have journaled ev (or are replaying it).
func (s *Store) apply(ev Event, rules *core.Rules) {
	if ev.Op == opDelete {
		delete(s.models, ev.Name)
	} else {
		s.install(ev.Name, Revision{Version: ev.Version, Rules: rules, Raw: ev.Rules, seq: ev.Seq})
	}
	s.met.models.Set(float64(len(s.models)))
}

// follows checks a checked event against the current state: a put must
// carry a version above its name's counter, as every put the store
// journals does, or the name's history would stop ascending. Callers
// hold s.mu.
func (s *Store) follows(ev Event) error {
	if last := s.lastVersion[ev.Name]; ev.Op == opPut && ev.Version <= last {
		return fmt.Errorf("store: put %q v%d at seq %d: version not above %d", ev.Name, ev.Version, ev.Seq, last)
	}
	return nil
}

// install appends a revision to a model's history, pruning beyond the
// retention bound, and advances the name's version counter. Pruning
// also trims the replication log through the newest pruned revision's
// event: a follower that has not applied that event can no longer
// rebuild the retained history from events, so it needs a snapshot
// whatever the log holds. The log thus keeps at most maxVersions puts
// of any one model, however large the replicationLog bound. Callers
// hold s.mu and have journaled the event r carries.
func (s *Store) install(name string, r Revision) {
	revs := append(s.models[name], r)
	if limit := s.opts.maxVersions; limit > 0 && len(revs) > limit {
		pruned := len(revs) - limit
		s.trimReplog(revs[pruned-1].seq)
		revs = append(revs[:0], revs[pruned:]...)
	}
	s.models[name] = revs
	if r.Version > s.lastVersion[name] {
		s.lastVersion[name] = r.Version
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
func (s *Store) journal(ctx context.Context, ev Event) error {
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
			} else {
				s.met.walSizeBytes.Set(float64(s.wal.size))
			}
			return fmt.Errorf("store: committing WAL record: %w", err)
		}
		if s.wal.sync {
			s.met.fsyncs.Inc()
		}
		s.met.walWrittenBytes.Add(float64(n))
		s.met.walSizeBytes.Set(float64(s.wal.size))
	}
	s.met.appends.With(ev.Op).Inc()
	s.seq = ev.Seq
	s.sinceSnap++
	s.appendReplog(ev)
	s.notifyChanged()
	return nil
}

// commit journals ev, applies it and runs the periodic compaction: the
// tail of every mutation. rules are a put's decoded rules. Callers hold
// s.mu.
func (s *Store) commit(ctx context.Context, ev Event, rules *core.Rules) error {
	if err := s.journal(ctx, ev); err != nil {
		return err
	}
	s.apply(ev, rules)
	s.maybeSnapshot(ctx)
	return nil
}

// writable reports why the store refuses mutations: it is closed, or a
// failed WAL rollback wedged it. Callers hold s.mu.
func (s *Store) writable() error {
	if s.closed {
		return ErrClosed
	}
	return s.failed
}

// PutContext stores rules under name as a new head version and returns
// it. The mutation is durable (WAL-committed) before PutContext
// returns. A "store.put" span covers the whole mutation, with
// "wal.append"/"wal.fsync" children from the journal and a
// "store.snapshot" child when the put trips the periodic compaction.
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
	if err := s.writable(); err != nil {
		return 0, err
	}
	version := s.lastVersion[name] + 1
	sp.SetAttr("version", version)
	if err := s.commit(ctx, Event{Seq: s.seq + 1, Op: opPut, Name: name, Version: version, Rules: raw}, rules); err != nil {
		return 0, err
	}
	return version, nil
}

// DeleteContext removes a model (its whole history), reporting whether
// it existed, under a "store.delete" span (children as in PutContext).
// The version counter for the name is retained so a future re-create
// continues from version n+1.
func (s *Store) DeleteContext(ctx context.Context, name string) (bool, error) {
	ctx, sp := trace.Start(ctx, "store.delete")
	defer sp.End()
	sp.SetAttr("model", name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return false, err
	}
	if _, ok := s.models[name]; !ok {
		return false, nil
	}
	if err := s.commit(ctx, Event{Seq: s.seq + 1, Op: opDelete, Name: name}, nil); err != nil {
		return false, err
	}
	return true, nil
}

// RollbackContext re-installs retained version v of name as a new head
// version under a "store.rollback" span (children as in PutContext),
// returning the restored rules and the new head's number (the pair is
// taken under the store lock, so it cannot mix revisions with a
// concurrent put). It is journaled as a plain put, so history stays
// linear: rolling back never erases revisions.
func (s *Store) RollbackContext(ctx context.Context, name string, version int) (*core.Rules, int, error) {
	ctx, sp := trace.Start(ctx, "store.rollback")
	defer sp.End()
	sp.SetAttr("model", name)
	sp.SetAttr("to_version", version)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return nil, 0, err
	}
	target, err := s.revision(name, version)
	if err == nil && version == 0 {
		// Version 0 names the head in lookups; it is no rollback target.
		err = fmt.Errorf("model %q version 0: %w", name, ErrVersionNotFound)
	}
	if err != nil {
		return nil, 0, err
	}
	rules, newVersion := target.Rules, s.lastVersion[name]+1
	if err := s.commit(ctx, Event{Seq: s.seq + 1, Op: opPut, Name: name, Version: newVersion, Rules: target.Raw}, rules); err != nil {
		return nil, 0, err
	}
	return rules, newVersion, nil
}

// revision finds retained version v of name, or its head when v is 0.
// The error wraps ErrNotFound when the model does not exist and
// ErrVersionNotFound when v is not retained. Callers hold s.mu.
func (s *Store) revision(name string, version int) (*Revision, error) {
	revs := s.models[name]
	if len(revs) == 0 {
		return nil, fmt.Errorf("model %q: %w", name, ErrNotFound)
	}
	if version == 0 {
		return &revs[len(revs)-1], nil
	}
	for i := range revs {
		if revs[i].Version == version {
			return &revs[i], nil
		}
	}
	return nil, fmt.Errorf("model %q version %d: %w", name, version, ErrVersionNotFound)
}

// Revision returns retained version v of name, or its head when v is 0;
// errors as for revision. It is the one lookup behind every read of a
// model: the HTTP GETs and inference routes, rollback candidates and
// GE annotations.
func (s *Store) Revision(name string, version int) (Revision, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, err := s.revision(name, version)
	if err != nil {
		return Revision{}, err
	}
	return *r, nil
}

// Get returns the head revision of a model and its version.
func (s *Store) Get(name string) (*core.Rules, int, bool) {
	r, err := s.Revision(name, 0)
	return r.Rules, r.Version, err == nil
}

// Versions lists the retained revisions of a model, ascending, with the
// head flagged. ok is false when the model does not exist.
func (s *Store) Versions(name string) (infos []VersionInfo, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	revs, ok := s.models[name]
	if !ok {
		return nil, false
	}
	infos = make([]VersionInfo, len(revs))
	for i, r := range revs {
		infos[i] = VersionInfo{
			Version:     r.Version,
			K:           r.Rules.K(),
			M:           r.Rules.M(),
			TrainedRows: r.Rules.TrainedRows(),
			Bytes:       len(r.Raw),
			Head:        i == len(revs)-1,
			GE:          r.GE,
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
	if r, err := s.revision(name, version); err == nil {
		r.GE = &ge // replaced, never written through, so readers' copies stay put
	}
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
	if err := writeSnapshot(s.dir, s.docLocked()); err != nil {
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
