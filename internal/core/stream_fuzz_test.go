package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// fuzzSeedCheckpoint builds a valid Save output for seeding the fuzzer.
func fuzzSeedCheckpoint(t testing.TB, width int, decay float64, rows int) []byte {
	t.Helper()
	sm, err := NewStreamMiner(width, decay)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	row := make([]float64, width)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if err := sm.Push(row); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadStreamMiner throws mutated checkpoint bytes at the decoder:
// it must never panic, and whenever it accepts an input, the restored
// miner must have finite means once it holds two rows, and must survive
// a Save/Load round trip with identical counters and identical
// sufficient statistics (Save is the canonical encoding, so a fixed
// point after one hop proves the state was fully captured).
func FuzzLoadStreamMiner(f *testing.F) {
	valid := fuzzSeedCheckpoint(f, 4, 0, 25)
	decayed := fuzzSeedCheckpoint(f, 3, 0.25, 10)
	f.Add(valid)
	f.Add(decayed)
	f.Add(valid[:len(valid)/2])                                             // truncated mid-document
	f.Add(append([]byte("{"), valid...))                                    // broken framing
	f.Add([]byte(`{}`))                                                     // empty document
	f.Add([]byte(`{"version":1,"width":9999999,"sums":[1],"cross":[[1]]}`)) // absurd width
	f.Add([]byte(`{"version":1,"width":1,"weight":1e-320,"count":5,"sums":[1],"cross":[[1]]}`))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20 // bit flip in the payload
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		sm, err := LoadStreamMiner(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs just need to not panic
		}
		if sm.Count() >= 2 {
			means, err := sm.acc.Means()
			if err != nil {
				t.Fatalf("Means of accepted checkpoint: %v", err)
			}
			for j, v := range means {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted checkpoint has non-finite mean %v in column %d", v, j)
				}
			}
		}
		var buf bytes.Buffer
		if err := sm.Save(&buf); err != nil {
			t.Fatalf("Save of accepted checkpoint failed: %v", err)
		}
		again, err := LoadStreamMiner(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-Load of Save output failed: %v", err)
		}
		if again.Width() != sm.Width() || again.Decay() != sm.Decay() ||
			again.Count() != sm.Count() || again.acc.State().Weight != sm.acc.State().Weight {
			t.Fatalf("round trip changed state: %d/%v/%d/%v vs %d/%v/%d/%v",
				again.Width(), again.Decay(), again.Count(), again.acc.State().Weight,
				sm.Width(), sm.Decay(), sm.Count(), sm.acc.State().Weight)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("second Save failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), second.Bytes()) {
			t.Fatal("Save output is not a fixed point after one Load hop")
		}
	})
}

// TestLoadStreamMinerRoundTrip pins the happy path the fuzzer asserts
// structurally: a checkpointed miner resumes exactly — same count, and
// identical rules after identical further pushes.
func TestLoadStreamMinerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	x := randomCorrelated(rng, 120, 5)
	orig, err := NewStreamMiner(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := orig.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadStreamMiner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != 60 || restored.Width() != 5 || restored.Decay() != 0 {
		t.Fatalf("restored count/width/decay = %d/%d/%v", restored.Count(), restored.Width(), restored.Decay())
	}
	for i := 60; i < 120; i++ {
		for _, sm := range []*StreamMiner{orig, restored} {
			if err := sm.Push(x.RawRow(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := orig.Rules()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Rules()
	if err != nil {
		t.Fatal(err)
	}
	assertRulesClose(t, got, want, 1e-12)
}
