package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"ratiorules/internal/core"
)

// WAL record layout (all integers big-endian):
//
//	offset  size  field
//	0       4     payload length N
//	4       4     CRC32 (IEEE) of the payload
//	8       N     payload: one Event as JSON
//
// Records are appended with a single Write call and fsynced before the
// mutation is acknowledged, so a crash leaves at most one torn record
// at the tail. There is no resync marker: replay stops at the first
// record that fails the length, checksum or JSON checks and the file is
// truncated there (see Open).
const (
	walHeaderSize = 8
	// maxWalRecord rejects absurd lengths during replay so a few bytes
	// of tail garbage cannot demand a gigabyte allocation.
	maxWalRecord = 1 << 30
)

// Operations journaled in the WAL. Rollback is journaled as a plain put
// of the restored revision under a fresh version number, so replay needs
// only these two.
const (
	opPut    = "put"
	opDelete = "delete"
)

// Event is one committed store mutation: the payload of a WAL record
// and, unchanged, the unit of leader→follower replication. Seq is a
// store-wide monotonic sequence number: replay skips events at or below
// the snapshot's, which makes the snapshot-then-compact dance
// idempotent even if the process dies between the snapshot rename and
// the WAL truncate. Op is "put" or "delete"; Rules is the canonical
// model JSON (put only), byte-identical to what the leader serves, so
// follower GETs and ETags match the leader at the same seq.
type Event struct {
	Seq     uint64          `json:"seq"`
	Op      string          `json:"op"`
	Name    string          `json:"name"`
	Version int             `json:"version,omitempty"`
	Rules   json.RawMessage `json:"rules,omitempty"`
	// Trace is the W3C traceparent of the mutation that journaled the
	// event ("" when untraced), so a follower's replica.apply span can
	// continue the leader's originating trace.
	Trace string `json:"trace,omitempty"`
}

// check validates ev before it touches any state, returning the decoded
// rules of a put. WAL replay skips, and ApplyEvent rejects, an event
// that fails it, so a CRC-valid but malformed record is never
// installed.
func (ev Event) check() (*core.Rules, error) {
	switch ev.Op {
	case opPut:
		if ev.Name == "" || ev.Version <= 0 {
			return nil, fmt.Errorf("store: put seq %d: missing name or version", ev.Seq)
		}
		rules, err := core.Load(bytes.NewReader(ev.Rules))
		if err != nil {
			return nil, fmt.Errorf("store: put %q seq %d: %w", ev.Name, ev.Seq, err)
		}
		return rules, nil
	case opDelete:
		if ev.Name == "" {
			return nil, fmt.Errorf("store: delete seq %d: missing name", ev.Seq)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("store: event seq %d: unknown op %q", ev.Seq, ev.Op)
	}
}

// encodeRecord frames a payload as one WAL record.
func encodeRecord(payload []byte) []byte {
	rec := make([]byte, walHeaderSize+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[walHeaderSize:], payload)
	return rec
}

// decodeRecords walks buf and returns the fully-committed events plus
// the byte offset where the first torn or corrupt record begins (equal
// to len(buf) when the log is clean). It never fails: anything invalid
// simply ends the walk, which is exactly the truncate-and-warn recovery
// contract.
func decodeRecords(buf []byte) (events []Event, valid int) {
	off := 0
	for {
		if len(buf)-off < walHeaderSize {
			return events, off
		}
		n := int(binary.BigEndian.Uint32(buf[off : off+4]))
		sum := binary.BigEndian.Uint32(buf[off+4 : off+8])
		if n > maxWalRecord || len(buf)-off-walHeaderSize < n {
			return events, off
		}
		payload := buf[off+walHeaderSize : off+walHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return events, off
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return events, off
		}
		events = append(events, ev)
		off += walHeaderSize + n
	}
}

// walFile is the file surface walWriter needs; *os.File satisfies it.
// Tests substitute failing implementations to drive the append/commit
// error paths.
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// walWriter appends framed records to the open log file, fsyncing each
// commit unless the store was opened with WithNoSync.
type walWriter struct {
	f    walFile
	sync bool
	size int64 // bytes currently in the log
}

// append frames and writes one payload, returning the record size.
func (w *walWriter) append(payload []byte) (int, error) {
	rec := encodeRecord(payload)
	if _, err := w.f.Write(rec); err != nil {
		return 0, err
	}
	w.size += int64(len(rec))
	return len(rec), nil
}

// commit makes the last append durable.
func (w *walWriter) commit() error {
	if !w.sync {
		return nil
	}
	return w.f.Sync()
}

// rollback restores the log to prevSize after a failed append or
// commit. A partial write (ENOSPC, I/O error) leaves torn bytes at the
// tail, and a failed fsync leaves an unacknowledged full record; either
// way, later appends would land after the bad bytes and recovery would
// stop at the tear — silently discarding every subsequently
// acknowledged write. Truncating back to the last committed record
// keeps the log identical to what callers were told is durable.
func (w *walWriter) rollback(prevSize int64) error {
	if err := w.f.Truncate(prevSize); err != nil {
		return err
	}
	if _, err := w.f.Seek(prevSize, io.SeekStart); err != nil {
		return err
	}
	w.size = prevSize
	return nil
}

// reset discards the log contents after a successful snapshot.
func (w *walWriter) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return err
	}
	w.size = 0
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

func (w *walWriter) close() error {
	if w.sync {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}
