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
//     far behind the retained log (or starting empty), the same
//     document snapshot.json holds;
//   - ApplyEvent: the follower-side fold, idempotent on seq, journaling
//     each event into the follower's OWN WAL under the leader's seq so
//     the applied position is checkpointed for free and a restarted
//     follower resumes exactly where it stopped; it shares its check
//     and apply with WAL replay;
//   - RestoreSnapshot: the follower-side bootstrap, loading the doc
//     exactly as Open loads snapshot.json and validating it in full
//     before swapping any state, so a half-read snapshot can never
//     become a torn served model.
//
// Memory-mode stores replicate identically (journal still advances seq
// and the replication log); they just re-bootstrap from the leader
// after a restart instead of from their own disk.

import (
	"context"
	"errors"
	"fmt"
	"maps"
)

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
// configured bound. Callers hold s.mu and have just journaled ev.
func (s *Store) appendReplog(ev Event) {
	if s.opts.replicationLog <= 0 {
		s.replogBase = ev.Seq
		return
	}
	s.replog = append(s.replog, ev)
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
	return s.docLocked()
}

// docLocked builds the SnapshotDoc of the current state, for followers
// and for snapshot.json alike. Callers hold s.mu.
func (s *Store) docLocked() *SnapshotDoc {
	doc := &SnapshotDoc{
		Seq:         s.seq,
		Models:      make(map[string][]SnapshotRev, len(s.models)),
		LastVersion: maps.Clone(s.lastVersion),
	}
	for name, revs := range s.models {
		srs := make([]SnapshotRev, len(revs))
		for i, r := range revs {
			srs[i] = SnapshotRev{Version: r.Version, Rules: r.Raw}
		}
		doc.Models[name] = srs
	}
	return doc
}

// ApplyEvent folds one replicated event into this store under the
// LEADER's sequence number: the event is checked, journaled to this
// store's own WAL (durable mode) and applied, exactly like local
// replay. Events at or below the current seq are skipped (applied=false,
// nil error) — reconnecting from the last applied seq can never
// double-apply a record. Gaps are rejected: an event more than one
// ahead means the stream lost records and the caller must re-bootstrap.
func (s *Store) ApplyEvent(ev Event) (applied bool, err error) {
	// Check before taking the lock or touching the journal: a corrupt
	// frame must never be written to the local WAL.
	rules, err := ev.check()
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return false, err
	}
	if ev.Seq <= s.seq {
		return false, nil // already applied: seq idempotence
	}
	if ev.Seq != s.seq+1 {
		return false, fmt.Errorf("store: replicated seq %d after %d: gap, %w", ev.Seq, s.seq, ErrSnapshotNeeded)
	}
	if err := s.follows(ev); err != nil {
		return false, err
	}
	if err := s.commit(context.Background(), ev, rules); err != nil {
		return false, err
	}
	return true, nil
}

// RestoreSnapshot atomically replaces this store's entire state with
// the snapshot doc — the follower bootstrap path, also used when the
// leader's retained log no longer covers the follower's seq. The doc
// goes through the same loader as Open (loadDoc) BEFORE any state is
// touched, so a torn or corrupt doc leaves the store exactly as it
// was; on success the new state is persisted as a local snapshot and
// the local WAL is compacted (durable mode), making the restore itself
// crash-safe.
func (s *Store) RestoreSnapshot(doc *SnapshotDoc) error {
	if doc == nil {
		return errors.New("store: nil snapshot doc")
	}
	st, err := loadDoc(doc)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	s.state = st
	s.replog = nil
	s.replogBase = st.seq
	s.met.models.Set(float64(len(s.models)))
	// Persist the restored state and compact the local WAL: stale
	// records below the snapshot seq must not resurrect on recovery.
	// Failure is not fatal to the in-memory restore — the WAL's replay
	// guard (seq <= snapshot seq is skipped) keeps recovery correct —
	// but surface it so the follower can log.
	s.sinceSnap = 1
	err = s.snapshotLocked(context.Background())
	s.notifyChanged()
	if err != nil {
		return fmt.Errorf("store: persisting restored snapshot: %w", err)
	}
	return nil
}
