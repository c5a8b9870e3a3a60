package core

import (
	"context"
	"fmt"

	"ratiorules/internal/obs"
	"ratiorules/internal/stats"
)

// MineSharded mines rules from several row shards concurrently: one
// goroutine accumulates the single-pass covariance sums per shard, the
// partial accumulators are merged exactly (plain additions), and a single
// eigensolve finishes the job. The result is bit-for-bit the same rules
// the sequential Mine would produce on the concatenated shards, because
// the paper's Fig. 2(a) sums are order-independent up to floating-point
// re-association.
//
// All shards must report the same Width. An error in any shard aborts the
// whole mine.
func (m *Miner) MineSharded(shards []RowSource) (*Rules, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: MineSharded with no shards: %w", ErrWidth)
	}
	width := shards[0].Width()
	fills := make([]func(*stats.CovAccumulator) error, len(shards))
	for i, shard := range shards {
		if shard.Width() != width {
			return nil, fmt.Errorf("core: shard %d width %d, want %d: %w",
				i, shard.Width(), width, ErrWidth)
		}
		fills[i] = func(acc *stats.CovAccumulator) error {
			defer obs.NewTimer(minerShardSeconds).ObserveDuration()
			if err := pushRows(shard, acc); err != nil {
				return fmt.Errorf("core: shard %d: %w", i, err)
			}
			return nil
		}
	}
	return m.mine(context.Background(), width, fills...)
}
