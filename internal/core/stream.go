package core

import (
	"context"
	"errors"
	"fmt"

	"ratiorules/internal/stats"
)

// StreamMiner maintains the single-pass covariance sums incrementally so
// rules can be (re-)derived at any point of an unbounded stream — an
// extension of the paper's one-pass algorithm to continuous operation.
// Push is O(M²); Rules costs one O(M³) eigensolve on the current sums and
// can be called as often as needed. The sums live in one
// stats.CovAccumulator, the same accumulator batch mining fills.
//
// An optional exponential decay geometrically down-weights old rows so
// the rules track drifting ratios; with decay 0 (the default) the stream
// miner is exactly equivalent to batch mining of all pushed rows: the
// accumulated sums are the same quantities Mine computes in its single
// pass, so Rules agrees with Mine on the same rows to floating-point
// round-off (within 1e-12 — pinned by TestStreamMinerBatchEquivalence).
//
// StreamMiner is not safe for concurrent use; wrap it in a mutex if
// multiple goroutines push (internal/online does exactly that).
type StreamMiner struct {
	miner *Miner
	acc   *stats.CovAccumulator
}

// NewStreamMiner returns a stream miner for rows of the given width,
// configured by the same options as NewMiner, with exponential decay
// lambda in [0, 1): each new row multiplies all previous weights by
// (1−lambda).
func NewStreamMiner(width int, lambda float64, opts ...Option) (*StreamMiner, error) {
	if width <= 0 {
		return nil, fmt.Errorf("core: stream miner width %d: %w", width, ErrWidth)
	}
	acc, err := stats.NewDecayedCovAccumulator(width, lambda)
	if err != nil {
		return nil, fmt.Errorf("core: stream miner: %w", err)
	}
	return newStreamMiner(acc, opts)
}

// newStreamMiner wraps an accumulator of positive width in a miner built
// from opts.
func newStreamMiner(acc *stats.CovAccumulator, opts []Option) (*StreamMiner, error) {
	if acc.Width() <= 0 {
		return nil, fmt.Errorf("core: stream miner width %d: %w", acc.Width(), ErrWidth)
	}
	m, err := NewMiner(opts...)
	if err != nil {
		return nil, err
	}
	if m.attrs != nil && len(m.attrs) != acc.Width() {
		return nil, fmt.Errorf("core: %d attribute names for width %d: %w", len(m.attrs), acc.Width(), ErrWidth)
	}
	return &StreamMiner{miner: m, acc: acc}, nil
}

// streamErr tags the accumulator's width errors with ErrWidth too, the
// sentinel stream callers (HTTP ingest, cluster workers) classify on.
func streamErr(err error) error {
	if errors.Is(err, stats.ErrWidth) {
		return fmt.Errorf("%w: %w", err, ErrWidth)
	}
	return err
}

// Push folds one row into the decayed sums.
func (s *StreamMiner) Push(row []float64) error { return streamErr(s.acc.Push(row)) }

// PushBatch folds a block of rows — flat, row-major, len(flat) = n·width
// — in one call, equivalent to Pushing each row in order and applied
// all-or-nothing, so cluster workers can reject a whole wire chunk
// without partially applying it. With decay 0 the fold runs on the
// accumulator's SIMD kernel (see stats.CovAccumulator.PushBlock); this is
// what lets one worker core keep up with a coordinator fanning out wire
// chunks.
func (s *StreamMiner) PushBatch(flat []float64) error { return streamErr(s.acc.PushBlock(flat)) }

// Clone returns an independent copy of the miner — the same sums and
// options — in O(M²), without the JSON round trip of Save and
// LoadStreamMiner.
func (s *StreamMiner) Clone() *StreamMiner {
	return &StreamMiner{miner: s.miner, acc: s.acc.Clone()}
}

// Count reports how many rows have been pushed (undecayed).
func (s *StreamMiner) Count() int { return s.acc.Count() }

// Width reports the row width M the miner accumulates.
func (s *StreamMiner) Width() int { return s.acc.Width() }

// Decay reports the exponential decay lambda the miner was built with.
func (s *StreamMiner) Decay() float64 { return s.acc.Decay() }

// Merge folds another miner's decayed sums into s, enabling sharded
// parallel ingest: split a stream across shards, Push into each
// concurrently, then Merge the shards into one. Both miners must have
// the same width (ErrWidth otherwise) and decay; other is left
// untouched. With decay 0 the merged miner is exactly equivalent to a
// single miner that saw every row of both shards, in any order.
func (s *StreamMiner) Merge(other *StreamMiner) error { return streamErr(s.acc.Merge(other.acc)) }

// Rules derives the Ratio Rules from the current (decayed) sums. At least
// two rows must have been pushed (ErrTooFewRows otherwise).
func (s *StreamMiner) Rules() (*Rules, error) {
	if s.acc.Count() < 2 {
		return nil, fmt.Errorf("%w, got %d", ErrTooFewRows, s.acc.Count())
	}
	scatter, err := s.acc.Scatter()
	if err != nil {
		return nil, err
	}
	means, err := s.acc.Means()
	if err != nil {
		return nil, err
	}
	return s.miner.rulesFromScatter(context.Background(), scatter, means, s.acc.Count())
}
