package core

import (
	"encoding/json"
	"fmt"
	"io"

	"ratiorules/internal/stats"
)

// streamCheckpoint is the serialized sufficient statistics of a
// StreamMiner: a version tag followed by the accumulator's state. The
// mining *options* (cutoff, solver) are reconstruction parameters, not
// data, so they are re-supplied at load time.
type streamCheckpoint struct {
	Version int `json:"version"`
	stats.CovState
}

const checkpointVersion = 1

// Save writes the miner's sufficient statistics as JSON so a long-running
// pipeline can checkpoint and resume exactly: Load followed by the same
// pushes yields the same rules as an uninterrupted run.
func (s *StreamMiner) Save(w io.Writer) error {
	cp := streamCheckpoint{Version: checkpointVersion, CovState: s.acc.State()}
	if err := json.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("core: saving stream checkpoint: %w", err)
	}
	return nil
}

// LoadStreamMiner restores a checkpointed stream miner. The state is
// checked as stats.RestoreCovAccumulator documents. The mining options
// are re-supplied (they are configuration, not state) and must be valid
// for the checkpoint's width.
func LoadStreamMiner(r io.Reader, opts ...Option) (*StreamMiner, error) {
	var cp streamCheckpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: loading stream checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	acc, err := stats.RestoreCovAccumulator(cp.CovState)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt stream checkpoint: %w", streamErr(err))
	}
	return newStreamMiner(acc, opts)
}
