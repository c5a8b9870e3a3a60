package experiments

// The drift experiment measures the model-quality monitor end to end:
// how many GE evaluations (and rows) a sustained distribution shift
// costs before the regression alert fires, and how quickly -auto-
// rollback restores a clean retained version. The promotion gate is
// deliberately disarmed (huge GESlack) so the shift genuinely takes
// over the served model — detection is the alert engine's job here,
// exactly the failure mode the monitor exists for.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/alert"
	"ratiorules/internal/online"
)

// DriftResult captures one detect-and-recover cycle.
type DriftResult struct {
	Rows          int `json:"rows"`
	Width         int `json:"width"`
	ReservoirSize int `json:"reservoir_size"`

	// Baseline phase: clean rows before the shift.
	BaselineEvals int     `json:"baseline_evals"`
	CleanGE       float64 `json:"clean_ge"`

	// Detection: cost from the first drifted republish to the first
	// firing alert.
	Detected         bool          `json:"detected"`
	DetectionRule    string        `json:"detection_rule,omitempty"`
	DetectionEvals   int           `json:"detection_evals"`
	DetectionRows    int           `json:"detection_rows"`
	DetectionLatency time.Duration `json:"detection_latency_ns"`
	DriftGE          float64       `json:"drift_ge"`

	// Recovery: the auto-rollback that followed the firing alert.
	RolledBack      bool          `json:"rolled_back"`
	RollbackLatency time.Duration `json:"rollback_latency_ns"`
	PostRollbackGE  float64       `json:"post_rollback_ge"`
}

// versionedMemStore is a ModelStore that retains every published
// version, so the monitor's auto-rollback has history to restore from.
type versionedMemStore struct {
	mu      sync.Mutex
	history []*core.Rules
}

func (s *versionedMemStore) Put(_ context.Context, _ string, r *core.Rules) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.history = append(s.history, r)
	return len(s.history), nil
}

func (s *versionedMemStore) GetWithVersion(string) (*core.Rules, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.history) == 0 {
		return nil, 0, false
	}
	return s.history[len(s.history)-1], len(s.history), true
}

func (s *versionedMemStore) GetVersion(_ string, version int) (*core.Rules, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version < 1 || version > len(s.history) {
		return nil, false
	}
	return s.history[version-1], true
}

func (s *versionedMemStore) Rollback(_ context.Context, _ string, version int) (*core.Rules, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version < 1 || version > len(s.history) {
		return nil, 0, fmt.Errorf("experiments: no version %d", version)
	}
	r := s.history[version-1]
	s.history = append(s.history, r)
	return r, len(s.history), nil
}

// RunDrift streams rows <= 0 ? 20000 : rows clean rank-1 rows of width
// <= 0 ? 16 : width through a live stream (republish + GE eval every
// rows/20 chunk), then switches the source to an independent profile
// and keeps streaming until the regression alert fires and the
// auto-rollback lands, measuring the latency of each.
func RunDrift(rows, width int) (*DriftResult, error) {
	if rows <= 0 {
		rows = 20000
	}
	if width <= 0 {
		width = 16
	}
	chunk := rows / 20
	if chunk < 1 {
		chunk = 1
	}

	// A single regression rule, no For/Cooldown: the experiment wants
	// the raw detection latency, not the deployment damping. Ratio 2
	// keeps the noisy baseline (each republish refits the model, so GE
	// jitters ~2x) from firing — and from burning the rollback flap
	// gate — before the shift arrives; the real spike is >10x.
	rules := []alert.Rule{{
		Name: "ge_regression", Kind: alert.KindRegression,
		Ratio: 2, Baseline: 12, Recent: 4,
	}}
	eng, err := alert.NewEngine(alert.Config{Rules: rules, Metrics: obs.Default()})
	if err != nil {
		return nil, fmt.Errorf("experiments: drift alerts: %w", err)
	}

	store := &versionedMemStore{}
	mgr, err := online.NewManager(store, online.Config{
		RepublishRows: rows + 1, // driven manually below
		GESlack:       1e12,     // disarm the gate: the alert must catch the shift
		Alerts:        eng,
		AutoRollback:  true,
		// The deployment flap gate would hide the real rollback latency
		// behind a possible noise-triggered baseline rollback. The
		// smallest positive cooldown keeps it out of the way however
		// quickly the two rollbacks follow each other.
		RollbackCooldown: time.Nanosecond,
		Metrics:          obs.Default(),
		Seed:             SplitSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: drift manager: %w", err)
	}
	defer mgr.Close()
	stream, err := mgr.Stream("drift", 0.9, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: drift stream: %w", err)
	}

	rng := rand.New(rand.NewSource(SplitSeed))
	clean := make([]float64, width)
	shifted := make([]float64, width)
	for j := range clean {
		clean[j] = 1 + rng.Float64()*4
		// An independent profile: the drifted rows obey different
		// ratios, so the clean model scores badly on them and vice
		// versa.
		shifted[j] = 5 - clean[j] + rng.Float64()
	}
	makeRow := func(profile []float64) []float64 {
		scale := 1 + rng.Float64()*9
		row := make([]float64, width)
		for j := range row {
			row[j] = profile[j] * scale * (1 + 0.05*rng.NormFloat64())
		}
		return row
	}

	ctx := context.Background()
	out := &DriftResult{Rows: rows, Width: width,
		ReservoirSize: online.DefaultReservoirSize}

	pushChunk := func(profile []float64) error {
		for i := 0; i < chunk; i++ {
			if _, err := stream.Push(ctx, makeRow(profile)); err != nil {
				return fmt.Errorf("experiments: drift push: %w", err)
			}
		}
		if _, err := mgr.Republish(ctx, "drift"); err != nil {
			return fmt.Errorf("experiments: drift republish: %w", err)
		}
		return nil
	}

	// Baseline: clean chunks until the GE ring holds a full regression
	// window (12 baseline + 4 recent samples).
	for out.BaselineEvals < 16 {
		if err := pushChunk(clean); err != nil {
			return nil, err
		}
		smp, err := mgr.EvalGE(ctx, "drift")
		if err != nil {
			return nil, fmt.Errorf("experiments: drift eval: %w", err)
		}
		out.BaselineEvals++
		out.CleanGE = smp.ServedGE
	}
	if _, firing := mgr.Alerts(); firing > 0 {
		return nil, fmt.Errorf("experiments: alert fired on clean baseline")
	}
	rollbacks0 := 0
	if h, ok := mgr.Health("drift"); ok {
		rollbacks0 = h.AutoRollbacks
	}

	// Shift: drifted chunks until an alert fires (cap: the whole row
	// budget again).
	onset := time.Now()
	maxChunks := rows / chunk
	for i := 0; i < maxChunks && !out.Detected; i++ {
		if err := pushChunk(shifted); err != nil {
			return nil, err
		}
		smp, err := mgr.EvalGE(ctx, "drift")
		if err != nil {
			return nil, fmt.Errorf("experiments: drift eval: %w", err)
		}
		out.DetectionEvals++
		out.DetectionRows += chunk
		if smp.ServedGE > out.DriftGE {
			out.DriftGE = smp.ServedGE
		}
		states, firing := mgr.Alerts()
		if firing > 0 {
			out.Detected = true
			out.DetectionLatency = time.Since(onset)
			for _, st := range states {
				if st.State == alert.StateFiring {
					out.DetectionRule = st.Rule
					break
				}
			}
			// The alert (and the rollback it triggers) lands inside the
			// republish, so the eval above may already be scoring the
			// restored model — the spike that crossed the threshold is
			// in the monitor's GE history.
			if h, ok := mgr.Health("drift"); ok {
				for _, s := range h.History {
					if s.ServedGE > out.DriftGE {
						out.DriftGE = s.ServedGE
					}
				}
			}
		}
	}
	if !out.Detected {
		return out, nil
	}

	// The firing transition triggers the rollback synchronously inside
	// the alert run; poll Health for the bookkeeping to surface.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h, ok := mgr.Health("drift"); ok && h.AutoRollbacks > rollbacks0 {
			out.RolledBack = true
			out.RollbackLatency = time.Since(onset)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if out.RolledBack {
		if smp, err := mgr.EvalGE(ctx, "drift"); err == nil {
			out.PostRollbackGE = smp.ServedGE
		}
	}
	return out, nil
}

// String renders the detection/recovery figures.
func (r *DriftResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Drift detection: %d rows x %d cols, reservoir %d, gate disarmed\n\n",
		r.Rows, r.Width, r.ReservoirSize)
	fmt.Fprintf(&b, "%-34s %12.6g\n", "clean GE (baseline)", r.CleanGE)
	if !r.Detected {
		fmt.Fprintf(&b, "%-34s %12s\n", "alert", "never fired")
		return b.String()
	}
	fmt.Fprintf(&b, "%-34s %12.6g\n", "drifted GE (at detection)", r.DriftGE)
	fmt.Fprintf(&b, "%-34s %12s\n", "detecting rule", r.DetectionRule)
	fmt.Fprintf(&b, "%-34s %12d evals (%d rows)\n", "detection cost", r.DetectionEvals, r.DetectionRows)
	fmt.Fprintf(&b, "%-34s %12s\n", "detection latency", r.DetectionLatency.Round(time.Microsecond))
	if r.RolledBack {
		fmt.Fprintf(&b, "%-34s %12s\n", "auto-rollback latency", r.RollbackLatency.Round(time.Microsecond))
		fmt.Fprintf(&b, "%-34s %12.6g\n", "GE after rollback", r.PostRollbackGE)
	} else {
		fmt.Fprintf(&b, "%-34s %12s\n", "auto-rollback", "did not land")
	}
	return b.String()
}
