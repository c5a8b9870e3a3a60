package online

// Model-quality monitoring: the GE time-series ring, the periodic
// re-evaluation tick, the alert hookup, and the auto-rollback policy.
//
// The promotion gate (online.go) measures GE only when a republish
// fires, and until this file existed it threw the numbers away — a
// slowly drifting stream could degrade a served model invisibly
// between gate decisions. Here every gate decision and every
// Config.GEEvalEvery tick appends a timestamped sample to a bounded
// per-stream ring (persisted in the checkpoint sidecars, so trends
// survive restarts), the ring feeds the alert engine after each
// sample, and — opt-in — a firing sustained-regression alert triggers
// a rollback to the best prior version the monitor has GE numbers
// for, re-scored against the current holdout so the choice reflects
// today's data rather than the data the version was promoted on.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs/alert"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/store"
)

// Monitoring defaults for Config zero values.
const (
	// DefaultGEHistorySize caps the per-stream GE sample ring.
	DefaultGEHistorySize = 256
	// DefaultRollbackMargin is how much better (relative GE) a prior
	// version must score before auto-rollback prefers it. Deliberately
	// independent of GESlack: the gate's tolerance for promoting says
	// nothing about how much better "better" must be to flip back.
	DefaultRollbackMargin = 0.2
	// DefaultRollbackCooldown is the minimum spacing between
	// auto-rollbacks of one stream — the flap gate.
	DefaultRollbackCooldown = 5 * time.Minute
	// outcomeWindow caps the per-stream ring of gate outcomes feeding
	// the rejection-rate rule.
	outcomeWindow = 64
)

// RollbackStore is the optional store capability auto-rollback needs:
// reading prior versions and restoring one as the new head, under
// store.Store's own method names, so a *store.Store (and the
// server.Registry embedding one) satisfies it; plain ModelStores
// without it simply never roll back.
type RollbackStore interface {
	Revision(name string, version int) (store.Revision, error)
	RollbackContext(ctx context.Context, name string, version int) (*core.Rules, int, error)
}

// GEAnnotator is the optional store capability for attaching the
// monitor's GE measurements to version metadata, so version listings
// can show quality next to size and age.
type GEAnnotator interface {
	SetVersionGE(name string, version int, ge float64)
}

// GESample is one point of a model's quality time series.
type GESample struct {
	T time.Time `json:"t"`
	// ServedGE is GE₁ of the model serving *after* this event — the
	// series the alert rules watch.
	ServedGE float64 `json:"served_ge"`
	// CandidateGE is the gate input on republish samples (0 on eval
	// and rollback samples).
	CandidateGE float64 `json:"candidate_ge,omitempty"`
	// Version is the store version serving after this event.
	Version int `json:"version,omitempty"`
	// Source is "republish", "eval" or "rollback".
	Source string `json:"source"`
	// Promoted marks republish samples whose candidate passed the gate.
	Promoted bool `json:"promoted,omitempty"`
}

// Eval-tick sentinels: conditions that make a GE evaluation a no-op
// rather than a failure (streams idle before first publish, or drained
// reservoirs).
var (
	errNoServed  = errors.New("online: no served model to evaluate")
	errNoHoldout = errors.New("online: empty holdout reservoir")
)

// EvalGE re-scores a model's *served* rules against the stream's
// current holdout reservoir and appends the result to the GE ring —
// the periodic heartbeat that keeps the quality series moving when no
// republish fires. Runs under an online.ge_eval span and feeds the
// alert engine.
func (m *Manager) EvalGE(ctx context.Context, name string) (GESample, error) {
	ctx, sp := trace.Start(ctx, "online.ge_eval")
	if sp == nil && m.cfg.Tracer != nil {
		ctx, sp = m.cfg.Tracer.StartRoot(ctx, "online.ge_eval", trace.SpanContext{})
	}
	start := time.Now()
	sample, err := m.evalGE(ctx, name)
	m.met.geEvalSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		m.met.geEvals.With("error").Inc()
	} else {
		m.met.geEvals.With("ok").Inc()
	}
	if sp != nil {
		sp.SetAttr("model", name)
		if err != nil {
			sp.SetAttr("error", err.Error())
		} else {
			sp.SetAttr("served_ge", sample.ServedGE)
			sp.SetAttr("version", sample.Version)
		}
		sp.End()
	}
	return sample, err
}

func (m *Manager) evalGE(ctx context.Context, name string) (GESample, error) {
	st := m.lookup(name)
	if st == nil {
		return GESample{}, fmt.Errorf("%w: %q", ErrNoStream, name)
	}
	st.mu.Lock()
	holdout := append([][]float64(nil), st.reservoir...)
	st.mu.Unlock()
	if len(holdout) == 0 {
		return GESample{}, fmt.Errorf("%w: %q", errNoHoldout, name)
	}
	served, version, ok := m.store.Get(name)
	if !ok {
		return GESample{}, fmt.Errorf("%w: %q", errNoServed, name)
	}
	test, err := matrix.FromRows(holdout)
	if err != nil {
		return GESample{}, fmt.Errorf("online: building holdout for %q: %w", name, err)
	}
	ge, err := core.GE1(served, test)
	if err != nil {
		return GESample{}, fmt.Errorf("online: evaluating served GE for %q: %w", name, err)
	}
	m.met.ge.With("served").Set(ge)

	sample := GESample{T: time.Now(), ServedGE: ge, Version: version, Source: "eval"}
	st.mu.Lock()
	st.appendGE(sample, m.cfg.GEHistorySize)
	st.versionGE[version] = ge
	st.geEps = rmsScale(holdout) * 1e-9
	st.mu.Unlock()
	m.annotateVersionGE(name, version, ge)
	m.runAlerts(ctx, name)
	return sample, nil
}

// evalAll runs the GE tick over every stream; expected no-op
// conditions stay at debug level.
func (m *Manager) evalAll(ctx context.Context) {
	for _, name := range m.Names() {
		if _, err := m.EvalGE(ctx, name); err != nil {
			if errors.Is(err, errNoServed) || errors.Is(err, errNoHoldout) {
				m.cfg.Logger.Debug("online GE eval skipped", "model", name, "err", err)
			} else {
				m.cfg.Logger.Warn("online GE eval failed", "model", name, "err", err)
			}
		}
	}
}

// appendGE pushes one sample into the bounded ring; callers hold s.mu.
func (s *Stream) appendGE(smp GESample, max int) {
	s.geHistory = append(s.geHistory, smp)
	if n := len(s.geHistory); max > 0 && n > max {
		copy(s.geHistory, s.geHistory[n-max:])
		s.geHistory = s.geHistory[:max]
	}
}

// recordGateSample appends the GE sample and gate outcome of one
// republish decision; callers hold s.mu. Promotions make the candidate
// the served model, so the series value is the candidate's GE then.
func (s *Stream) recordGateSample(res RepublishResult, eps float64, max int) {
	served := res.ServedGE
	version := s.lastVersion
	if res.Promoted {
		served = res.CandidateGE
		version = res.Version
	}
	s.appendGE(GESample{
		T:           time.Now(),
		ServedGE:    served,
		CandidateGE: res.CandidateGE,
		Version:     version,
		Source:      "republish",
		Promoted:    res.Promoted,
	}, max)
	s.outcomes = append(s.outcomes, res.Promoted)
	if n := len(s.outcomes); n > outcomeWindow {
		copy(s.outcomes, s.outcomes[n-outcomeWindow:])
		s.outcomes = s.outcomes[:outcomeWindow]
	}
	s.geEps = eps
	if res.Promoted {
		s.versionGE[res.Version] = res.CandidateGE
	}
}

// annotateVersionGE attaches a GE measurement to store version
// metadata when the store supports it.
func (m *Manager) annotateVersionGE(name string, version int, ge float64) {
	if ann, ok := m.store.(GEAnnotator); ok {
		ann.SetVersionGE(name, version, ge)
	}
}

// runAlerts feeds one stream's current GE series and gate outcomes to
// the alert engine and, when auto-rollback is enabled, reacts to
// quality rules that transition to firing.
func (m *Manager) runAlerts(ctx context.Context, name string) {
	eng := m.cfg.Alerts
	if eng == nil {
		return
	}
	st := m.lookup(name)
	if st == nil {
		return
	}
	st.mu.Lock()
	in := alert.Input{
		Samples:  make([]alert.Sample, len(st.geHistory)),
		Outcomes: append([]bool(nil), st.outcomes...),
		Eps:      st.geEps,
	}
	for i, s := range st.geHistory {
		in.Samples[i] = alert.Sample{T: s.T, V: s.ServedGE}
	}
	st.mu.Unlock()

	for _, tr := range eng.Eval(ctx, name, in) {
		if !m.cfg.AutoRollback || tr.To != alert.StateFiring {
			continue
		}
		// Only sustained quality regressions justify swapping the
		// served model; a rejection-rate alert means the gate is
		// already defending it.
		if tr.Rule.Kind == alert.KindRegression || tr.Rule.Kind == alert.KindSlope {
			m.maybeAutoRollback(ctx, name, tr)
			return
		}
	}
}

// maybeAutoRollback re-scores every prior version the monitor has GE
// numbers for against the current holdout, and restores the best one
// when it beats the served model by RollbackMargin. Edge-triggered
// (only on transitions to firing), cooldown-gated per stream, and a
// no-op when the store cannot roll back.
func (m *Manager) maybeAutoRollback(ctx context.Context, name string, tr alert.Transition) {
	ctx, sp := trace.Start(ctx, "online.auto_rollback")
	outcome := "skipped"
	var fromVersion, toVersion int
	defer func() {
		if sp != nil {
			sp.SetAttr("model", name)
			sp.SetAttr("rule", tr.Rule.Name)
			sp.SetAttr("outcome", outcome)
			if toVersion != 0 {
				sp.SetAttr("from_version", fromVersion)
				sp.SetAttr("to_version", toVersion)
			}
			sp.End()
		}
	}()

	rb, ok := m.store.(RollbackStore)
	if !ok {
		m.cfg.Logger.Debug("auto-rollback unavailable: store cannot roll back", "model", name)
		return
	}
	st := m.lookup(name)
	if st == nil {
		return
	}
	st.mu.Lock()
	holdout := append([][]float64(nil), st.reservoir...)
	last := st.lastRollback
	versions := make([]int, 0, len(st.versionGE))
	for v := range st.versionGE {
		versions = append(versions, v)
	}
	st.mu.Unlock()
	if m.cfg.RollbackCooldown > 0 && !last.IsZero() && time.Since(last) < m.cfg.RollbackCooldown {
		outcome = "cooldown"
		m.cfg.Logger.Debug("auto-rollback suppressed by cooldown", "model", name, "rule", tr.Rule.Name)
		return
	}
	if len(holdout) == 0 {
		return
	}
	served, servedVersion, ok := m.store.Get(name)
	if !ok {
		return
	}
	fromVersion = servedVersion
	test, err := matrix.FromRows(holdout)
	if err != nil {
		return
	}
	servedGE, err := core.GE1(served, test)
	if err != nil {
		return
	}

	// Every candidate is re-scored on *today's* holdout: the GE a
	// version was promoted with reflects the reservoir of its era and
	// would bias the choice toward old data.
	sort.Ints(versions)
	bestVersion, bestGE := 0, math.Inf(1)
	for _, v := range versions {
		if v == servedVersion {
			continue
		}
		r, err := rb.Revision(name, v)
		if err != nil || r.Rules.Width() != served.Width() {
			continue
		}
		ge, err := core.GE1(r.Rules, test)
		if err != nil {
			continue
		}
		if ge < bestGE {
			bestGE, bestVersion = ge, v
		}
	}
	eps := rmsScale(holdout) * 1e-9
	if bestVersion == 0 || bestGE > servedGE*(1-m.cfg.RollbackMargin)+eps {
		outcome = "no_better_version"
		m.cfg.Logger.Info("auto-rollback found no sufficiently better prior version",
			"model", name, "rule", tr.Rule.Name, "served_ge", servedGE,
			"best_prior_ge", bestGE, "margin", m.cfg.RollbackMargin)
		return
	}

	_, newVersion, err := rb.RollbackContext(ctx, name, bestVersion)
	if err != nil {
		outcome = "error"
		m.cfg.Logger.Warn("auto-rollback failed", "model", name,
			"to_version", bestVersion, "err", err)
		return
	}
	outcome = "rolled_back"
	toVersion = newVersion
	m.met.autoRollbacks.Inc()
	now := time.Now()
	st.mu.Lock()
	st.autoRollbacks++
	st.lastRollback = now
	st.lastVersion = newVersion
	st.pending = 0
	st.rolledBack = true
	st.versionGE[newVersion] = bestGE
	st.appendGE(GESample{T: now, ServedGE: bestGE, Version: newVersion, Source: "rollback"},
		m.cfg.GEHistorySize)
	st.mu.Unlock()
	m.annotateVersionGE(name, newVersion, bestGE)
	m.cfg.Logger.Warn("auto-rollback restored prior version",
		"model", name, "rule", tr.Rule.Name,
		"from_version", servedVersion, "restored", bestVersion, "new_version", newVersion,
		"served_ge", servedGE, "restored_ge", bestGE)
}

// ModelHealth is the per-model quality summary behind
// GET /v1/rules/{name}/health.
type ModelHealth struct {
	Name           string `json:"name"`
	ServingVersion int    `json:"serving_version,omitempty"`
	// CurrentGE is the latest served-GE sample; BaselineGE the mean of
	// the trailing baseline window before the recent samples (0 until
	// enough history exists).
	CurrentGE  float64 `json:"current_ge"`
	BaselineGE float64 `json:"baseline_ge"`
	// TrendPerSample is the relative served-GE slope per sample over
	// the recent window (positive = degrading).
	TrendPerSample float64        `json:"trend_per_sample"`
	Samples        int            `json:"samples"`
	History        []GESample     `json:"history,omitempty"`
	Alerts         []alert.Status `json:"alerts"`
	Firing         int            `json:"firing"`
	AutoRollbacks  int            `json:"auto_rollbacks,omitempty"`
	Status         string         `json:"status"` // "ok" | "degraded"
}

// Health windows, mirroring the stock regression/slope rules so the
// endpoint's baseline and trend explain what the alerts see.
const (
	healthBaselineWindow = 12
	healthRecentWindow   = 4
	healthTrendWindow    = 8
	healthHistoryCap     = 32
)

// Health summarizes one stream's quality state, ok=false without a
// live stream.
func (m *Manager) Health(name string) (ModelHealth, bool) {
	st := m.lookup(name)
	if st == nil {
		return ModelHealth{}, false
	}
	st.mu.Lock()
	history := append([]GESample(nil), st.geHistory...)
	autoRollbacks := st.autoRollbacks
	st.mu.Unlock()

	h := ModelHealth{Name: name, Samples: len(history), AutoRollbacks: autoRollbacks, Status: "ok"}
	if _, version, ok := m.store.Get(name); ok {
		h.ServingVersion = version
	}
	series := make([]alert.Sample, len(history))
	for i, s := range history {
		series[i] = alert.Sample{T: s.T, V: s.ServedGE}
	}
	if n := len(series); n > 0 {
		h.CurrentGE = series[n-1].V
		if n > healthRecentWindow {
			base := series[:n-healthRecentWindow]
			if len(base) > healthBaselineWindow {
				base = base[len(base)-healthBaselineWindow:]
			}
			h.BaselineGE = alert.MeanValues(base)
		}
		trend := series
		if n > healthTrendWindow {
			trend = series[n-healthTrendWindow:]
		}
		if mean := alert.MeanValues(trend); mean > 0 {
			h.TrendPerSample = alert.SlopePerSample(trend) / mean
		}
	}
	if len(history) > healthHistoryCap {
		history = history[len(history)-healthHistoryCap:]
	}
	h.History = history
	if m.cfg.Alerts != nil {
		h.Alerts = m.cfg.Alerts.Statuses(name)
		for _, a := range h.Alerts {
			if a.State == alert.StateFiring {
				h.Firing++
			}
		}
	}
	if h.Firing > 0 {
		h.Status = "degraded"
	}
	return h, true
}

// Alerts exposes the alert engine's full state for GET /debug/alerts
// and /readyz (nil-engine managers report empty).
func (m *Manager) Alerts() (states []alert.Status, firing int) {
	if m.cfg.Alerts == nil {
		return nil, 0
	}
	return m.cfg.Alerts.Snapshot()
}

// AlertRules lists the configured alert rules.
func (m *Manager) AlertRules() []alert.Rule {
	if m.cfg.Alerts == nil {
		return nil
	}
	return m.cfg.Alerts.Rules()
}
