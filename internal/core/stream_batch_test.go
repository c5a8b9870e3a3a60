package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ratiorules/internal/stats"
)

// PushBatch must be indistinguishable from Pushing each row in order —
// the cluster's worker fold is only exact if this holds.
func TestPushBatchEqualsSequentialPush(t *testing.T) {
	for _, width := range []int{1, 2, 3, 5, 7, 32} {
		for _, decay := range []float64{0, 0.3} {
			rng := rand.New(rand.NewSource(int64(width)*100 + int64(decay*10)))
			const rows = 257 // not a multiple of any kernel block size
			flat := make([]float64, rows*width)
			for i := range flat {
				flat[i] = rng.NormFloat64()
				if rng.Intn(9) == 0 {
					flat[i] = 0 // exercise the v==0 skip in the scalar oracle
				}
			}

			batched, err := NewStreamMiner(width, decay)
			if err != nil {
				t.Fatal(err)
			}
			if err := batched.PushBatch(flat); err != nil {
				t.Fatalf("width=%d decay=%g: PushBatch: %v", width, decay, err)
			}
			serial, err := NewStreamMiner(width, decay)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				if err := serial.Push(flat[r*width : (r+1)*width]); err != nil {
					t.Fatalf("width=%d decay=%g: Push row %d: %v", width, decay, r, err)
				}
			}

			bs, ss := batched.acc.State(), serial.acc.State()
			if batched.Count() != serial.Count() {
				t.Fatalf("width=%d decay=%g: count %d != %d", width, decay, batched.Count(), serial.Count())
			}
			if math.Abs(bs.Weight-ss.Weight) > 1e-9 {
				t.Fatalf("width=%d decay=%g: weight %v != %v", width, decay, bs.Weight, ss.Weight)
			}
			for j := 0; j < width; j++ {
				if d := relDiff(bs.Sums[j], ss.Sums[j]); d > 1e-12 {
					t.Fatalf("width=%d decay=%g: sums[%d] %v vs %v (rel %g)",
						width, decay, j, bs.Sums[j], ss.Sums[j], d)
				}
				for l := j; l < width; l++ {
					b, s := bs.Cross[j][l-j], ss.Cross[j][l-j]
					if d := relDiff(b, s); d > 1e-12 {
						t.Fatalf("width=%d decay=%g: cross[%d][%d] %v vs %v (rel %g)",
							width, decay, j, l, b, s, d)
					}
				}
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if scale := math.Max(math.Abs(a), math.Abs(b)); scale > 1 {
		return d / scale
	}
	return d
}

// A bad value anywhere in the batch rejects the whole batch with the
// offending row/column named, and folds nothing.
func TestPushBatchAllOrNothing(t *testing.T) {
	sm, err := NewStreamMiner(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = sm.PushBatch([]float64{1, 2, 3, 4, math.Inf(-1), 6})
	if !errors.Is(err, stats.ErrBadValue) {
		t.Fatalf("want ErrBadValue, got %v", err)
	}
	if !strings.Contains(err.Error(), "row 1 column 1") {
		t.Fatalf("error should name row 1 column 1: %v", err)
	}
	if sm.Count() != 0 {
		t.Fatalf("nothing should be folded after a rejected batch, count=%d", sm.Count())
	}

	if err := sm.PushBatch([]float64{1, 2, 3, 4}); !errors.Is(err, ErrWidth) {
		t.Fatalf("ragged batch: want ErrWidth, got %v", err)
	}
	if err := sm.PushBatch(nil); err != nil {
		t.Fatalf("empty batch must be a no-op, got %v", err)
	}
}
