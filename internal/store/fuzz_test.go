package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ratiorules/internal/obs"
)

// fuzzSeedRecords builds a small valid WAL for seeding the fuzzer.
func fuzzSeedRecords(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, ev := range []Event{
		{Seq: 1, Op: opPut, Name: "m", Version: 1, Rules: json.RawMessage(`{"means":[0],"eigenvalues":[1],"total_variance":1,"trained_rows":2,"vectors":[[1]]}`)},
		{Seq: 2, Op: opDelete, Name: "m"},
	} {
		payload, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		buf.Write(encodeRecord(payload))
	}
	return buf.Bytes()
}

// FuzzWALDecode throws arbitrary bytes at the WAL record decoder: it
// must never panic, must report a valid-prefix offset inside the input,
// and decoding that prefix again must be a fixed point (the truncate
// step of recovery must converge in one pass).
func FuzzWALDecode(f *testing.F) {
	valid := fuzzSeedRecords(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn tail
	f.Add(append([]byte{0xff}, valid...)) // leading garbage
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)                                    // CRC failure in the last record
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length header

	f.Fuzz(func(t *testing.T, data []byte) {
		events, valid := decodeRecords(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d outside [0, %d]", valid, len(data))
		}
		again, validAgain := decodeRecords(data[:valid])
		if validAgain != valid || len(again) != len(events) {
			t.Fatalf("re-decode of valid prefix: offset %d/%d, %d/%d events",
				validAgain, valid, len(again), len(events))
		}
		// Every decoded event must survive a marshal/encode/decode
		// round trip — what recovery replays is what append committed.
		var rebuilt bytes.Buffer
		for _, ev := range events {
			payload, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			rebuilt.Write(encodeRecord(payload))
		}
		round, roundValid := decodeRecords(rebuilt.Bytes())
		if roundValid != rebuilt.Len() || len(round) != len(events) {
			t.Fatalf("round trip lost records: %d/%d", len(round), len(events))
		}
	})
}

// TestDecodeRecordsUnit pins the exact decoder behavior the fuzz target
// asserts structurally: clean logs decode fully, torn tails stop at the
// record boundary.
func TestDecodeRecordsUnit(t *testing.T) {
	data := fuzzSeedRecords(t)
	events, valid := decodeRecords(data)
	if valid != len(data) || len(events) != 2 {
		t.Fatalf("clean decode: offset %d/%d, %d events", valid, len(data), len(events))
	}
	if events[0].Op != opPut || events[0].Seq != 1 || events[1].Op != opDelete || events[1].Seq != 2 {
		t.Fatalf("decoded events wrong: %+v", events)
	}
	// Find the first record's frame size to check mid-stream cuts.
	payload0, _ := json.Marshal(events[0])
	first := walHeaderSize + len(payload0)
	for _, cut := range []int{0, 1, walHeaderSize - 1, walHeaderSize, first - 1} {
		ev, v := decodeRecords(data[:cut])
		if len(ev) != 0 || v != 0 {
			t.Errorf("cut %d: %d events, offset %d; want none", cut, len(ev), v)
		}
	}
	ev, v := decodeRecords(data[:first+3])
	if len(ev) != 1 || v != first {
		t.Errorf("torn second record: %d events, offset %d, want 1 event at %d", len(ev), v, first)
	}
}

// FuzzRestoreSnapshot throws arbitrary bytes, decoded as a SnapshotDoc
// the way a follower decodes an RRS1 frame, at RestoreSnapshot on a
// store holding known models. It must never panic; a doc it rejects
// must leave Seq, Names and every head's bytes as they were; a doc it
// accepts must list each model's revisions strictly ascending, head
// last, and give every name it knows a version counter past the head
// and above zero, so the next put journals an event replay accepts.
func FuzzRestoreSnapshot(f *testing.F) {
	rules := func(mean int) string {
		return fmt.Sprintf(`{"means":[%d],"eigenvalues":[1],"total_variance":1,"trained_rows":2,"vectors":[[1]]}`, mean)
	}
	seed := func(doc string) { f.Add([]byte(doc)) }
	seed(fmt.Sprintf(`{"seq":7,"models":{"m":[{"version":1,"rules":%s},{"version":2,"rules":%s}]},"last_version":{"m":2,"gone":4}}`, rules(1), rules(2)))
	seed(`{"seq":3,"models":{"m":[{"version":1,"rules":{"means":[0],"eigen`)
	seed(`{"seq":3,"models":{"m":[{"version":1,"rules":{"means":[0],"vectors":"torn"}}]}}`)
	seed(fmt.Sprintf(`{"seq":5,"models":{"m":[{"version":3,"rules":%s},{"version":1,"rules":%s}]}}`, rules(3), rules(1)))
	seed(fmt.Sprintf(`{"seq":5,"models":{"m":[{"version":2,"rules":%s},{"version":2,"rules":%s}]}}`, rules(2), rules(3)))
	seed(fmt.Sprintf(`{"seq":5,"models":{"m":[{"version":4,"rules":%s}]},"last_version":{"m":1}}`, rules(4)))
	seed(`{"seq":1,"models":{"m":[]}}`)
	seed(`{"seq":1,"models":{},"last_version":{"x":-5}}`)
	seed(`null`)

	f.Fuzz(func(t *testing.T, data []byte) {
		var doc SnapshotDoc
		if json.Unmarshal(data, &doc) != nil {
			return
		}
		st := OpenMemory(WithObs(obs.NewRegistry()))
		for i, name := range []string{"a", "b", "a"} {
			if _, err := st.PutContext(bg, name, testRules(t, float64(i+2))); err != nil {
				t.Fatal(err)
			}
		}
		seq, names := st.Seq(), st.Names()
		heads := map[string][]byte{}
		for _, name := range names {
			heads[name], _, _ = getRaw(st, name)
		}
		if err := st.RestoreSnapshot(&doc); err != nil {
			if st.Seq() != seq || !reflect.DeepEqual(st.Names(), names) {
				t.Fatalf("failed restore moved the store: seq %d→%d, names %v→%v", seq, st.Seq(), names, st.Names())
			}
			for name, raw := range heads {
				if got, _, _ := getRaw(st, name); !bytes.Equal(got, raw) {
					t.Fatalf("failed restore changed %q's head", name)
				}
			}
			return
		}
		if st.Seq() != doc.Seq {
			t.Fatalf("restored seq %d, doc seq %d", st.Seq(), doc.Seq)
		}
		names = st.Names()
		for name := range doc.LastVersion {
			if name != "" {
				names = append(names, name)
			}
		}
		for _, name := range names {
			infos, _ := st.Versions(name)
			head := 0
			for i, in := range infos {
				if (i > 0 && in.Version <= infos[i-1].Version) || in.Head != (i == len(infos)-1) {
					t.Fatalf("%q restored as %+v", name, infos)
				}
				head = in.Version
			}
			v, err := st.PutContext(bg, name, testRules(t, 9))
			if err != nil || v <= head || v <= 0 {
				t.Fatalf("put on %q after restore: v%d, %v; head was v%d", name, v, err, head)
			}
		}
	})
}
