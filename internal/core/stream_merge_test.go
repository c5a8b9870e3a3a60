package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ratiorules/internal/matrix"
)

// TestStreamMinerMergeEqualsSingleStream shards one row stream across
// three accumulators, merges them, and requires the merged rules to
// match a single miner that saw every row — the contract that makes
// sharded parallel ingest sound.
func TestStreamMinerMergeEqualsSingleStream(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	x := randomCorrelated(rng, 300, 6)

	single, err := NewStreamMiner(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*StreamMiner, 3)
	for i := range shards {
		if shards[i], err = NewStreamMiner(6, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < x.Rows(); i++ {
		row := x.RawRow(i)
		if err := single.Push(row); err != nil {
			t.Fatal(err)
		}
		if err := shards[i%len(shards)].Push(row); err != nil {
			t.Fatal(err)
		}
	}
	merged := shards[0]
	for _, sh := range shards[1:] {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != single.Count() {
		t.Fatalf("merged Count = %d, want %d", merged.Count(), single.Count())
	}

	want, err := single.Rules()
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.Rules()
	if err != nil {
		t.Fatal(err)
	}
	assertRulesClose(t, got, want, 1e-12)
}

// TestStreamMinerMergeDecayed checks the decayed path: two shards that
// each saw the same rows merge into exactly the sum of their decayed
// statistics (weights add, sums add).
func TestStreamMinerMergeDecayed(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	a, _ := NewStreamMiner(3, 0.1)
	b, _ := NewStreamMiner(3, 0.1)
	for i := 0; i < 50; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if err := a.Push(row); err != nil {
			t.Fatal(err)
		}
		if err := b.Push(row); err != nil {
			t.Fatal(err)
		}
	}
	wantWeight := a.acc.State().Weight * 2
	wantSum0 := a.acc.State().Sums[0] * 2
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	merged := a.acc.State()
	if math.Abs(merged.Weight-wantWeight) > 1e-12*wantWeight {
		t.Errorf("merged weight = %v, want %v", merged.Weight, wantWeight)
	}
	if math.Abs(merged.Sums[0]-wantSum0) > 1e-12*math.Abs(wantSum0) {
		t.Errorf("merged sums[0] = %v, want %v", merged.Sums[0], wantSum0)
	}
	if a.Count() != 100 {
		t.Errorf("merged Count = %d, want 100", a.Count())
	}
}

func TestStreamMinerMergeRejectsMismatches(t *testing.T) {
	a, _ := NewStreamMiner(3, 0)
	narrow, _ := NewStreamMiner(2, 0)
	if err := a.Merge(narrow); !errors.Is(err, ErrWidth) {
		t.Errorf("width mismatch: err = %v, want ErrWidth", err)
	}
	decayed, _ := NewStreamMiner(3, 0.5)
	if err := a.Merge(decayed); err == nil {
		t.Error("decay mismatch must fail")
	}
	// Failed merges must not disturb the receiver.
	if a.Count() != 0 || a.acc.State().Weight != 0 {
		t.Errorf("failed merge mutated receiver: count %d, weight %v", a.Count(), a.acc.State().Weight)
	}
}

// TestStreamMinerBatchEquivalence is the property test pinning the doc
// comment's claim: with decay 0 the stream miner's rules are equal to
// batch Mine on the same rows within 1e-12, across random shapes. The
// two paths accumulate the same sums in the same order, so in practice
// they agree bit-for-bit; 1e-12 leaves headroom for refactors that
// reorder the arithmetic.
func TestStreamMinerBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(200)
		m := 2 + rng.Intn(12)
		x := randomCorrelated(rng, n, m)
		sm, err := NewStreamMiner(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := sm.Push(x.RawRow(i)); err != nil {
				t.Fatal(err)
			}
		}
		streamed, err := sm.Rules()
		if err != nil {
			t.Fatalf("trial %d (n=%d m=%d): stream rules: %v", trial, n, m, err)
		}
		miner, _ := NewMiner()
		batch, err := miner.MineMatrix(x)
		if err != nil {
			t.Fatalf("trial %d (n=%d m=%d): batch mine: %v", trial, n, m, err)
		}
		assertRulesClose(t, streamed, batch, 1e-12)
		if t.Failed() {
			t.Fatalf("trial %d (n=%d m=%d): stream/batch divergence", trial, n, m)
		}
	}
}

// assertRulesClose compares every externally observable component of two
// rule sets within tol (relative to the larger magnitude per entry).
func assertRulesClose(t *testing.T, got, want *Rules, tol float64) {
	t.Helper()
	if got.K() != want.K() || got.M() != want.M() || got.TrainedRows() != want.TrainedRows() {
		t.Errorf("shape: got k=%d m=%d n=%d, want k=%d m=%d n=%d",
			got.K(), got.M(), got.TrainedRows(), want.K(), want.M(), want.TrainedRows())
		return
	}
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
	}
	for j, m := range want.Means() {
		if !close(got.Means()[j], m) {
			t.Errorf("means[%d] = %v, want %v", j, got.Means()[j], m)
		}
	}
	for i, l := range want.Eigenvalues() {
		if !close(got.Eigenvalues()[i], l) {
			t.Errorf("eigenvalue[%d] = %v, want %v", i, got.Eigenvalues()[i], l)
		}
	}
	gv, wv := got.Vectors(), want.Vectors()
	if !matrix.EqualApprox(gv, wv, tol*(1+math.Abs(want.TotalVariance()))) {
		t.Error("rule vectors differ")
	}
}
