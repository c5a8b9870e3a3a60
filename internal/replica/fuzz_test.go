package replica

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ratiorules/internal/obs/obstest"
	"ratiorules/internal/store"
)

// FuzzReadFrame feeds arbitrary bytes to ReadFrame as a replication
// stream. Every read must end in a frame, a clean io.EOF exactly at a
// frame boundary, or an error wrapping ErrBadFrame, never a panic; no
// read may allocate past the payload cap plus what decoding the bytes
// actually present takes; and a decoded frame re-encodes to bytes that
// decode and re-encode unchanged, byte for byte for heartbeats.
func FuzzReadFrame(f *testing.F) {
	leader := store.OpenMemory()
	if _, err := leader.PutContext(bg, "m", testRules(f, 2)); err != nil {
		f.Fatal(err)
	}
	events, err := leader.EventsSince(0)
	if err != nil {
		f.Fatal(err)
	}
	valid := AppendHeartbeat(nil, 7)
	if valid, err = AppendEvent(valid, events[0]); err != nil {
		f.Fatal(err)
	}
	if valid, err = AppendEvent(valid, store.Event{Seq: 2, Op: "delete", Name: "m"}); err != nil {
		f.Fatal(err)
	}
	if valid, err = AppendSnapshot(valid, leader.SnapshotDoc()); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt) // CRC failure in the last frame
	hdr := AppendHeartbeat(nil, 0)[:frameHeaderLen]
	f.Add(append(bytes.Clone(hdr[:4]), 0xff, 0xff, 0xff, 0xff)) // absurd length
	f.Add(append(bytes.Clone(hdr[:4]), 0, 0, 0, 1))             // header-only 16 MiB claim
	f.Add(append([]byte("RRX1"), hdr[4:]...))                   // unknown magic

	limit := func(data []byte) uint64 { return maxFramePayload + 1<<20 + 64*uint64(len(data)) }
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			off := len(data) - r.Len()
			var fr Frame
			var err error
			if n := obstest.AllocBytes(func() { fr, err = ReadFrame(r) }); n > limit(data) {
				t.Fatalf("ReadFrame allocated %d bytes from a %d-byte input", n, len(data))
			}
			if err == io.EOF {
				if off != len(data) {
					t.Fatalf("io.EOF at offset %d of %d", off, len(data))
				}
				return
			}
			if err != nil {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("error %v does not wrap ErrBadFrame", err)
				}
				return
			}
			again := encodeFrame(t, fr)
			if fr.Kind == KindHeartbeat && !bytes.Equal(again, data[off:len(data)-r.Len()]) {
				t.Fatal("re-encoded heartbeat differs from its frame")
			}
			back, err := ReadFrame(bytes.NewReader(again))
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			if !bytes.Equal(encodeFrame(t, back), again) {
				t.Fatal("frame changed over a decode/encode round trip")
			}
		}
	})
}

// encodeFrame is ReadFrame's inverse.
func encodeFrame(t *testing.T, fr Frame) []byte {
	t.Helper()
	var out []byte
	var err error
	switch fr.Kind {
	case KindEvent:
		out, err = AppendEvent(nil, fr.Event)
	case KindSnapshot:
		out, err = AppendSnapshot(nil, fr.Snapshot)
	case KindHeartbeat:
		out = AppendHeartbeat(nil, fr.Seq)
	default:
		t.Fatalf("decoded frame of kind %d", fr.Kind)
	}
	if err != nil {
		t.Fatalf("re-encoding a decoded frame: %v", err)
	}
	return out
}
