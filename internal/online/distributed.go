package online

import (
	"context"
	"fmt"

	"ratiorules/internal/core"
)

// This file is the cluster coordinator's seam into the manager. In a
// sharded deployment the coordinator fans rows out to worker nodes and
// owns the only merged view of the data, but promotion must still run
// through the exact machinery single-node streams use — the GE gate,
// alerting, auto-rollback, version annotations, and checkpoints — so
// the coordinator (a) keeps the holdout reservoir fed via ObserveBatch
// and (b) hands each merged shard union to RepublishFrom.

// ObserveBatch offers a block of rows (flat, row-major) to the stream's
// holdout reservoir without folding them into the local miner. Cluster
// coordinators call this on the fan-out path: the data fold happens on
// the workers, while the reservoir — which gates every republish — must
// see the same uniform sample of the full ingest a single node would.
// One lock acquisition covers the whole block.
func (s *Stream) ObserveBatch(flat []float64, width int) {
	if width <= 0 || len(flat) < width {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for off := 0; off+width <= len(flat); off += width {
		s.reservoirOffer(flat[off : off+width])
	}
}

// RepublishFrom installs merged as the stream's accumulator and runs
// one full republish cycle on it: eigensolve, GE gate against the
// holdout, store publish, quality-series sample, alert evaluation, and
// checkpoint cadence — identical to a local republish, so every
// guarantee from the single-node path (ETags, versions, alerts,
// auto-rollback) applies unchanged to a cluster-merged model. The
// manager takes ownership of merged; the stream is created on first use
// with merged's decay.
func (m *Manager) RepublishFrom(ctx context.Context, name string, merged *core.StreamMiner) (RepublishResult, error) {
	if merged == nil {
		return RepublishResult{}, fmt.Errorf("online: republish from nil miner for %q", name)
	}
	st, err := m.Stream(name, merged.Decay(), false)
	if err != nil {
		return RepublishResult{}, err
	}
	st.mu.Lock()
	st.sm = merged
	st.mu.Unlock()
	return m.Republish(ctx, name)
}
