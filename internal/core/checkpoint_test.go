package core

import (
	"math/rand"
	"strings"
	"testing"

	"ratiorules/internal/matrix"
)

func TestStreamCheckpointResumeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	x := randomCorrelated(rng, 200, 4)

	// Uninterrupted run.
	whole, err := NewStreamMiner(4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := whole.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := whole.Rules()
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint at row 120, resume, continue.
	first, err := NewStreamMiner(4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := first.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := first.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadStreamMiner(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 120; i < 200; i++ {
		if err := resumed.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := resumed.Rules()
	if err != nil {
		t.Fatal(err)
	}

	if got.TrainedRows() != want.TrainedRows() {
		t.Fatalf("TrainedRows = %d, want %d", got.TrainedRows(), want.TrainedRows())
	}
	if !matrix.EqualApproxVec(got.Means(), want.Means(), 1e-12) {
		t.Error("means differ after resume")
	}
	if !matrix.EqualApproxVec(got.Eigenvalues(), want.Eigenvalues(), 1e-9*(1+want.Eigenvalues()[0])) {
		t.Error("eigenvalues differ after resume")
	}
	for i := 0; i < want.K() && i < got.K(); i++ {
		if !matrix.EqualApproxVec(got.Rule(i), want.Rule(i), 1e-9) {
			t.Errorf("rule %d differs after resume", i)
		}
	}
}

func TestLoadStreamMinerRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"not json":           "{",
		"wrong version":      `{"version":99,"width":2,"sums":[0,0],"cross":[[0,0],[0]]}`,
		"bad width":          `{"version":1,"width":0,"sums":[],"cross":[]}`,
		"sums mismatch":      `{"version":1,"width":2,"sums":[0],"cross":[[0,0],[0]]}`,
		"cross mismatch":     `{"version":1,"width":2,"sums":[0,0],"cross":[[0],[0]]}`,
		"negative count":     `{"version":1,"width":2,"count":-1,"sums":[0,0],"cross":[[0,0],[0]]}`,
		"decay out of range": `{"version":1,"width":2,"decay":1,"sums":[0,0],"cross":[[0,0],[0]]}`,
		// The counters must keep the invariants every push and merge keeps.
		"weight without rows":    `{"version":1,"width":2,"weight":3,"count":0,"sums":[0,0],"cross":[[0,0],[0]]}`,
		"rows without weight":    `{"version":1,"width":2,"weight":0,"count":5,"sums":[1,1],"cross":[[1,1],[1]]}`,
		"denormal weight":        `{"version":1,"width":2,"weight":1e-320,"count":5,"sums":[1,1],"cross":[[1,1],[1]]}`,
		"decayed weight below 1": `{"version":1,"width":2,"decay":0.5,"weight":0.5,"count":5,"sums":[1,1],"cross":[[1,1],[1]]}`,
		"weight above count":     `{"version":1,"width":2,"decay":0.5,"weight":6,"count":5,"sums":[1,1],"cross":[[1,1],[1]]}`,
		"undecayed weight off":   `{"version":1,"width":2,"weight":4,"count":5,"sums":[1,1],"cross":[[1,1],[1]]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadStreamMiner(strings.NewReader(in)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestLoadStreamMinerBadOptions(t *testing.T) {
	sm, err := NewStreamMiner(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Push([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := sm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStreamMiner(strings.NewReader(buf.String()), WithEnergy(-1)); err == nil {
		t.Error("invalid option at load must fail")
	}
	if _, err := LoadStreamMiner(strings.NewReader(buf.String()), WithAttrNames([]string{"a", "b", "c"})); err == nil {
		t.Error("attr width mismatch at load must fail")
	}
}

// TestCheckpointFormatV1 pins the version-1 checkpoint encoding with a
// hand-written literal: it loads, and Save reproduces it byte for byte,
// so online sidecars and cluster ShardDocs written by earlier builds
// keep loading. (Four rows pushed with decay 0.25.)
func TestCheckpointFormatV1(t *testing.T) {
	const v1 = `{"version":1,"width":3,"decay":0.25,"weight":2.734375,"count":4,` +
		`"sums":[4.546875,8.84375,2.5625],` +
		`"cross":[[11.671875,20.34375,7.125],[36.4375,12.25],[4.5625]]}` + "\n"
	sm, err := LoadStreamMiner(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if sm.Width() != 3 || sm.Decay() != 0.25 || sm.Count() != 4 {
		t.Fatalf("width/decay/count = %d/%v/%d, want 3/0.25/4", sm.Width(), sm.Decay(), sm.Count())
	}
	var buf strings.Builder
	if err := sm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != v1 {
		t.Errorf("Save rewrote the checkpoint:\ngot  %s\nwant %s", buf.String(), v1)
	}
	if _, err := sm.Rules(); err != nil {
		t.Errorf("Rules on the loaded checkpoint: %v", err)
	}
}
