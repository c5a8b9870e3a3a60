package store

// Replication surface: the WAL is already a totally-ordered,
// seq-numbered event log with idempotent replay, so shipping it to
// follower replicas needs only four things from the store —
//
//   - EventsSince: committed events after a given seq, served from a
//     bounded in-memory replication log (appended at commit time, so it
//     survives disk WAL compaction: snapshotting the leader never cuts
//     off a follower that is only slightly behind);
//   - SnapshotDoc: a consistent full-state snapshot for followers too
//     far behind the retained log (or starting empty);
//   - ApplyEvent: the follower-side fold, idempotent on seq, journaling
//     each event into the follower's OWN WAL under the leader's seq so
//     the applied position is checkpointed for free and a restarted
//     follower resumes exactly where it stopped;
//   - RestoreSnapshot: the follower-side bootstrap, validating the full
//     doc before swapping any state so a half-read snapshot can never
//     become a torn served model.
//
// Memory-mode stores replicate identically (journal still advances seq
// and the replication log); they just re-bootstrap from the leader
// after a restart instead of from their own disk.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"ratiorules/internal/core"
)

// ctxBackground avoids re-allocating a background context on every
// replicated apply (they come in long runs during catch-up).
var ctxBackground = context.Background()

// DefaultReplicationLog is the default upper bound on the committed
// events retained in memory for follower catch-up. An event also leaves
// the log when WithMaxVersions prunes the revision it carried, so a
// follower bootstraps from a snapshot once it is this many events
// behind or has missed a pruned revision.
const DefaultReplicationLog = 1024

// WithReplicationLog bounds the committed events retained in memory for
// follower catch-up (default DefaultReplicationLog; <= 0 retains none,
// forcing every follower attach through a snapshot bootstrap). It is an
// upper bound: pruning a revision also trims the log through the event
// that installed it.
func WithReplicationLog(n int) Option { return func(o *options) { o.replicationLog = n } }

// Event is one committed store mutation, exactly as journaled: the unit
// of leader→follower replication. Op is "put" or "delete"; Rules is the
// canonical model JSON (put only), byte-identical to what the leader
// serves, so follower GETs and ETags match the leader at the same seq.
type Event struct {
	Seq     uint64          `json:"seq"`
	Op      string          `json:"op"`
	Name    string          `json:"name"`
	Version int             `json:"version,omitempty"`
	Rules   json.RawMessage `json:"rules,omitempty"`
	// Trace is the leader's originating traceparent ("" when the
	// mutation was untraced): what lets a follower's replica.apply span
	// link back to the leader trace that committed the mutation. The
	// field layout must stay identical to walEvent — the two convert by
	// direct struct conversion.
	Trace string `json:"trace,omitempty"`
}

// SnapshotRev is one retained revision inside a SnapshotDoc.
type SnapshotRev struct {
	Version int             `json:"version"`
	Rules   json.RawMessage `json:"rules"`
}

// SnapshotDoc is a consistent full-state snapshot as of Seq — the same
// shape the on-disk snapshot uses, exported for replication bootstrap.
// GE annotations are advisory and in-memory only; they do not ship.
type SnapshotDoc struct {
	Seq         uint64                   `json:"seq"`
	Models      map[string][]SnapshotRev `json:"models"`
	LastVersion map[string]int           `json:"last_version,omitempty"`
}

// ErrSnapshotNeeded reports that the requested seq precedes the
// retained replication log: the caller must bootstrap from SnapshotDoc.
var ErrSnapshotNeeded = errors.New("store: seq compacted past, snapshot bootstrap needed")

// Seq returns the last committed sequence number.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// Changed returns a channel closed at the next committed mutation.
// Callers re-arm by calling Changed again after each wakeup; the
// channel obtained before a commit is always eventually closed, so a
// replication stream can never sleep through an event.
func (s *Store) Changed() <-chan struct{} {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.changed
}

// notifyChanged wakes every Changed waiter. Callers hold s.mu.
func (s *Store) notifyChanged() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// appendReplog retains ev for follower catch-up, trimming to the
// configured bound. Callers hold s.mu; ev.Seq must be s.seq.
func (s *Store) appendReplog(ev walEvent) {
	if s.opts.replicationLog <= 0 {
		s.replogBase = ev.Seq
		return
	}
	s.replog = append(s.replog, Event(ev))
	if over := len(s.replog) - s.opts.replicationLog; over > 0 {
		s.trimReplog(s.replog[over-1].Seq)
	}
}

// trimReplog drops the retained events with Seq <= through and moves
// replogBase up to it; a through at or below the base is a no-op.
// Callers hold s.mu.
func (s *Store) trimReplog(through uint64) {
	if through <= s.replogBase {
		return
	}
	i := 0
	for i < len(s.replog) && s.replog[i].Seq <= through {
		i++
	}
	n := copy(s.replog, s.replog[i:])
	clear(s.replog[n:]) // release the dropped payloads
	s.replog = s.replog[:n]
	s.replogBase = through
}

// EventsSince returns the committed events with Seq > after, in order.
// It returns ErrSnapshotNeeded when `after` precedes the retained
// replication log (the store was restarted, or the log was trimmed past
// it) — the caller must bootstrap from SnapshotDoc and re-attach from
// its seq. A caller exactly at the head gets an empty slice; wait on
// Changed for more.
func (s *Store) EventsSince(after uint64) ([]Event, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if after > s.seq {
		return nil, fmt.Errorf("store: seq %d is ahead of head %d: %w", after, s.seq, ErrSnapshotNeeded)
	}
	if after < s.replogBase {
		return nil, fmt.Errorf("store: seq %d precedes retained log base %d: %w", after, s.replogBase, ErrSnapshotNeeded)
	}
	// replog holds (replogBase, seq] in seq order; skip what the caller
	// already has.
	events := s.replog
	i := 0
	for i < len(events) && events[i].Seq <= after {
		i++
	}
	events = events[i:]
	out := make([]Event, len(events))
	copy(out, events)
	return out, nil
}

// SnapshotDoc captures a consistent full-state snapshot for follower
// bootstrap. Reads run under the store read-lock, so the doc can never
// mix state across a concurrent commit.
func (s *Store) SnapshotDoc() *SnapshotDoc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	doc := &SnapshotDoc{
		Seq:         s.seq,
		Models:      make(map[string][]SnapshotRev, len(s.models)),
		LastVersion: make(map[string]int, len(s.lastVersion)),
	}
	for name, m := range s.models {
		revs := make([]SnapshotRev, len(m.revs))
		for i, r := range m.revs {
			revs[i] = SnapshotRev{Version: r.version, Rules: r.raw}
		}
		doc.Models[name] = revs
	}
	for name, v := range s.lastVersion {
		doc.LastVersion[name] = v
	}
	return doc
}

// ApplyEvent folds one replicated event into this store under the
// LEADER's sequence number: the event is validated, journaled to this
// store's own WAL (durable mode) and installed, exactly like local
// replay. Events at or below the current seq are skipped (applied=false,
// nil error) — reconnecting from the last applied seq can never
// double-apply a record. Gaps are rejected: an event more than one
// ahead means the stream lost records and the caller must re-bootstrap.
func (s *Store) ApplyEvent(ev Event) (applied bool, err error) {
	// Validate before taking the lock or touching the journal: a corrupt
	// frame must never be written to the local WAL.
	var rules *core.Rules
	switch ev.Op {
	case opPut:
		if ev.Name == "" || ev.Version <= 0 {
			return false, fmt.Errorf("store: replicated put seq %d: missing name or version", ev.Seq)
		}
		if rules, err = core.Load(bytes.NewReader(ev.Rules)); err != nil {
			return false, fmt.Errorf("store: replicated put %q seq %d: %w", ev.Name, ev.Seq, err)
		}
	case opDelete:
		if ev.Name == "" {
			return false, fmt.Errorf("store: replicated delete seq %d: missing name", ev.Seq)
		}
	default:
		return false, fmt.Errorf("store: replicated event seq %d: unknown op %q", ev.Seq, ev.Op)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if s.failed != nil {
		return false, s.failed
	}
	if ev.Seq <= s.seq {
		return false, nil // already applied: seq idempotence
	}
	if ev.Seq != s.seq+1 {
		return false, fmt.Errorf("store: replicated seq %d after %d: gap, %w", ev.Seq, s.seq, ErrSnapshotNeeded)
	}
	if err := s.journal(ctxBackground, walEvent(ev)); err != nil {
		return false, err
	}
	switch ev.Op {
	case opPut:
		s.install(ev.Name, rev{version: ev.Version, rules: rules, raw: ev.Rules, seq: ev.Seq})
	case opDelete:
		delete(s.models, ev.Name)
	}
	s.met.models.Set(float64(len(s.models)))
	s.maybeSnapshot(ctxBackground)
	return true, nil
}

// RestoreSnapshot atomically replaces this store's entire state with
// the snapshot doc — the follower bootstrap path, also used when the
// leader's retained log no longer covers the follower's seq. Every
// model is validated BEFORE any state is touched, so a torn or corrupt
// doc leaves the store exactly as it was; on success the new state is
// persisted as a local snapshot and the local WAL is compacted (durable
// mode), making the restore itself crash-safe.
func (s *Store) RestoreSnapshot(doc *SnapshotDoc) error {
	if doc == nil {
		return errors.New("store: nil snapshot doc")
	}
	// Validate first, outside the lock: Load every model revision.
	models := make(map[string]*model, len(doc.Models))
	for name, revs := range doc.Models {
		m := &model{revs: make([]rev, len(revs))}
		for i, sr := range revs {
			rules, err := core.Load(bytes.NewReader(sr.Rules))
			if err != nil {
				return fmt.Errorf("store: snapshot model %q v%d: %w", name, sr.Version, err)
			}
			m.revs[i] = rev{version: sr.Version, rules: rules, raw: sr.Rules}
		}
		models[name] = m
	}
	lastVersion := make(map[string]int, len(doc.LastVersion))
	for name, v := range doc.LastVersion {
		lastVersion[name] = v
	}
	// The head version counters must cover the installed revisions even
	// if the doc omitted last_version.
	for name, m := range models {
		for _, r := range m.revs {
			if r.version > lastVersion[name] {
				lastVersion[name] = r.version
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	s.models = models
	s.lastVersion = lastVersion
	s.seq = doc.Seq
	s.replog = nil
	s.replogBase = doc.Seq
	s.met.models.Set(float64(len(s.models)))
	// Persist the restored state and compact the local WAL: stale
	// records below the snapshot seq must not resurrect on recovery.
	// Failure is not fatal to the in-memory restore — the WAL's replay
	// guard (seq <= snapshot seq is skipped) keeps recovery correct —
	// but surface it so the follower can log.
	s.sinceSnap = 1
	err := s.snapshotLocked(ctxBackground)
	s.notifyChanged()
	if err != nil {
		return fmt.Errorf("store: persisting restored snapshot: %w", err)
	}
	return nil
}
