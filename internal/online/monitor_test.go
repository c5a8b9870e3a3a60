package online

import (
	"context"
	"errors"
	"testing"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/alert"
)

// versionedStore extends fakeStore with the RollbackStore capability:
// every version is kept, and Rollback re-publishes an old version as
// the new head — the same shape as server.Registry over the WAL store.
type versionedStore struct {
	fakeStore
	history map[string][]*core.Rules // index = version-1
}

func newVersionedStore() *versionedStore {
	return &versionedStore{
		fakeStore: fakeStore{models: make(map[string]*core.Rules), version: make(map[string]int)},
		history:   make(map[string][]*core.Rules),
	}
}

func (v *versionedStore) Put(ctx context.Context, name string, rules *core.Rules) (int, error) {
	version, err := v.fakeStore.Put(ctx, name, rules)
	if err == nil {
		v.mu.Lock()
		v.history[name] = append(v.history[name], rules)
		v.mu.Unlock()
	}
	return version, err
}

func (v *versionedStore) GetVersion(name string, version int) (*core.Rules, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.history[name]
	if version < 1 || version > len(h) {
		return nil, false
	}
	return h[version-1], true
}

func (v *versionedStore) Rollback(ctx context.Context, name string, version int) (*core.Rules, int, error) {
	rules, ok := v.GetVersion(name, version)
	if !ok {
		return nil, 0, errors.New("no such version")
	}
	newVersion, err := v.Put(ctx, name, rules)
	return rules, newVersion, err
}

// evalGEOK is EvalGE with the error fataled.
func evalGEOK(t *testing.T, m *Manager, name string) GESample {
	t.Helper()
	s, err := m.EvalGE(context.Background(), name)
	if err != nil {
		t.Fatalf("EvalGE: %v", err)
	}
	return s
}

// quickRules builds a tight alert rule set for tests: no For hold, no
// cooldown, small windows.
func quickRules() []alert.Rule {
	return []alert.Rule{
		{Name: "ge_regression", Kind: alert.KindRegression, Ratio: 2, Baseline: 3, Recent: 2},
	}
}

func quickEngine(t *testing.T, reg *obs.Registry) *alert.Engine {
	t.Helper()
	eng, err := alert.NewEngine(alert.Config{Rules: quickRules(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestGateDecisionsFeedGESeries: the second republish runs a real gate
// comparison and must append a sample; the first (first_publish) has no
// baseline and must not.
func TestGateDecisionsFeedGESeries(t *testing.T) {
	fs := newFakeStore()
	m := testManager(t, fs, Config{RepublishRows: 1 << 30})
	st, err := m.Stream("m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 50, cleanRow)
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	n := len(st.geHistory)
	st.mu.Unlock()
	if n != 0 {
		t.Fatalf("first_publish recorded %d GE samples, want 0", n)
	}

	pushN(t, st, 50, cleanRow)
	res, err := m.Republish(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != "ge_ok" {
		t.Fatalf("reason = %q, want ge_ok", res.Reason)
	}
	st.mu.Lock()
	history := append([]GESample(nil), st.geHistory...)
	outcomes := append([]bool(nil), st.outcomes...)
	ge, hasGE := st.versionGE[res.Version]
	st.mu.Unlock()
	if len(history) != 1 {
		t.Fatalf("GE history = %d samples, want 1", len(history))
	}
	s := history[0]
	if s.Source != "republish" || !s.Promoted || s.Version != res.Version ||
		s.ServedGE != res.CandidateGE || s.T.IsZero() {
		t.Fatalf("gate sample = %+v (result %+v)", s, res)
	}
	if len(outcomes) != 1 || !outcomes[0] {
		t.Fatalf("outcomes = %v, want [true]", outcomes)
	}
	if !hasGE || ge != res.CandidateGE {
		t.Fatalf("versionGE[%d] = %v/%v, want %v", res.Version, ge, hasGE, res.CandidateGE)
	}
}

// TestEvalGE: the tick re-scores the served model against the current
// reservoir, records an "eval" sample, and surfaces the no-op cases as
// typed errors.
func TestEvalGE(t *testing.T) {
	fs := newFakeStore()
	reg := obs.NewRegistry()
	m := testManager(t, fs, Config{RepublishRows: 1 << 30, Metrics: reg})

	if _, err := m.EvalGE(context.Background(), "ghost"); !errors.Is(err, ErrNoStream) {
		t.Fatalf("EvalGE on missing stream: %v, want ErrNoStream", err)
	}

	st, err := m.Stream("m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 40, cleanRow)
	if _, err := m.EvalGE(context.Background(), "m"); !errors.Is(err, errNoServed) {
		t.Fatalf("EvalGE before first publish: %v, want errNoServed", err)
	}
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}

	s := evalGEOK(t, m, "m")
	if s.Source != "eval" || s.Version != 1 || s.ServedGE > 1e-6 {
		t.Fatalf("eval sample = %+v, want source=eval version=1 tiny GE", s)
	}
	st.mu.Lock()
	n, ge := len(st.geHistory), st.versionGE[1]
	st.mu.Unlock()
	if n != 1 || ge != s.ServedGE {
		t.Fatalf("history=%d versionGE[1]=%v, want 1 sample matching %v", n, ge, s.ServedGE)
	}
	snap := reg.Snapshot()
	if v := snap[obs.SampleKey("rr_online_ge_evals_total", map[string]string{"result": "ok"})]; v != 1 {
		t.Fatalf("rr_online_ge_evals_total{ok} = %v, want 1", v)
	}
}

// TestGEHistoryRingBounded: the sample ring must stay capped at
// GEHistorySize, keeping the newest samples.
func TestGEHistoryRingBounded(t *testing.T) {
	fs := newFakeStore()
	m := testManager(t, fs, Config{RepublishRows: 1 << 30, GEHistorySize: 5})
	st, err := m.Stream("m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 40, cleanRow)
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		evalGEOK(t, m, "m")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.geHistory) != 5 {
		t.Fatalf("ring length = %d, want 5", len(st.geHistory))
	}
	for i := 1; i < len(st.geHistory); i++ {
		if st.geHistory[i].T.Before(st.geHistory[i-1].T) {
			t.Fatalf("ring out of order at %d: %+v", i, st.geHistory)
		}
	}
}

// TestRegressionAlertFiresOnDrift: a clean baseline followed by a data
// shift (anti-ratio rows flooding the reservoir while the clean model
// stays served) must walk the served-GE series up and fire the
// regression rule, visible in engine state and rr_alert_firing.
func TestRegressionAlertFiresOnDrift(t *testing.T) {
	fs := newFakeStore()
	reg := obs.NewRegistry()
	eng := quickEngine(t, reg)
	m := testManager(t, fs, Config{
		RepublishRows: 1 << 30,
		ReservoirSize: 64,
		Metrics:       reg,
		Alerts:        eng,
	})
	st, err := m.Stream("m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 64, cleanRow)
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		evalGEOK(t, m, "m") // clean baseline samples
	}
	// Flood the stream: the reservoir turns over toward anti rows, the
	// served clean model scores worse and worse.
	pushN(t, st, 2000, antiRow)
	evalGEOK(t, m, "m")
	s := evalGEOK(t, m, "m")
	if s.ServedGE < 1e-3 {
		t.Fatalf("served GE after drift = %v, want clearly regressed", s.ServedGE)
	}

	states, firing := m.Alerts()
	if firing != 1 {
		t.Fatalf("firing = %d (states %+v), want 1", firing, states)
	}
	if len(states) != 1 || states[0].Rule != "ge_regression" ||
		states[0].Target != "m" || states[0].State != alert.StateFiring {
		t.Fatalf("states = %+v", states)
	}
	if v := reg.Snapshot()["rr_alert_firing"]; v != 1 {
		t.Fatalf("rr_alert_firing = %v, want 1", v)
	}

	h, ok := m.Health("m")
	if !ok {
		t.Fatal("no health for live stream")
	}
	if h.Status != "degraded" || h.Firing != 1 || h.CurrentGE != s.ServedGE ||
		h.ServingVersion != 1 || h.Samples != 5 {
		t.Fatalf("health = %+v", h)
	}
	if h.BaselineGE >= h.CurrentGE {
		t.Fatalf("baseline %v not below current %v", h.BaselineGE, h.CurrentGE)
	}

	// Dropping the stream clears its alert states.
	m.Drop("m")
	if _, firing := m.Alerts(); firing != 0 {
		t.Fatalf("firing after drop = %d, want 0", firing)
	}
}

// TestAutoRollbackRestoresBestVersion is the tentpole scenario end to
// end at the manager level: a clean v1, a drift burst force-promoted
// past the gate (huge slack) as v2, the regression alert fires, and the
// policy rolls the head back to v1's rules because they beat v2 on the
// current holdout.
func TestAutoRollbackRestoresBestVersion(t *testing.T) {
	vs := newVersionedStore()
	reg := obs.NewRegistry()
	m := testManager(t, vs, Config{
		RepublishRows:    1 << 30,
		ReservoirSize:    512,
		GESlack:          1e12, // force-promote anything: the drift scenario
		Metrics:          reg,
		Alerts:           quickEngine(t, reg),
		AutoRollback:     true,
		RollbackCooldown: time.Nanosecond,
	})
	st, err := m.Stream("m", 0.9, true) // decay: recent rows dominate the miner
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 400, cleanRow)
	if res, err := m.Republish(context.Background(), "m"); err != nil || !res.Promoted {
		t.Fatalf("publish v1: %+v, %v", res, err)
	}
	for i := 0; i < 3; i++ {
		evalGEOK(t, m, "m") // clean baseline
	}

	// The hijack burst: decayed stats now fit the anti regime, the gate
	// is slacked wide open, v2 (a bad model) is promoted — but the
	// reservoir still remembers the clean history.
	pushN(t, st, 100, antiRow)
	res, err := m.Republish(context.Background(), "m")
	if err != nil || !res.Promoted || res.Reason != "ge_ok" {
		t.Fatalf("force-promotion: %+v, %v", res, err)
	}
	if res.CandidateGE < res.ServedGE {
		t.Fatalf("burst candidate unexpectedly better: %+v", res)
	}
	if vs.headVersion("m") != 2 {
		t.Fatalf("head = %d, want 2", vs.headVersion("m"))
	}

	// One more bad sample fires the regression rule (baseline 3 clean,
	// recent 2 bad) and the policy must roll back within this call.
	evalGEOK(t, m, "m")

	head := vs.headVersion("m")
	if head != 3 {
		t.Fatalf("head after rollback = %d, want 3 (v1 republished)", head)
	}
	restored, _, _ := vs.GetWithVersion("m")
	v1, _ := vs.GetVersion("m", 1)
	if restored != v1 {
		t.Fatal("rolled-back head is not v1's rules")
	}
	st.mu.Lock()
	rollbacks, lastVersion := st.autoRollbacks, st.lastVersion
	st.mu.Unlock()
	if rollbacks != 1 || lastVersion != 3 {
		t.Fatalf("autoRollbacks=%d lastVersion=%d, want 1/3", rollbacks, lastVersion)
	}
	if v := reg.Snapshot()["rr_online_auto_rollbacks_total"]; v != 1 {
		t.Fatalf("rr_online_auto_rollbacks_total = %v, want 1", v)
	}
	h, _ := m.Health("m")
	if h.AutoRollbacks != 1 || h.ServingVersion != 3 {
		t.Fatalf("health after rollback = %+v", h)
	}
}

// TestAutoRollbackFlapGate: inside the cooldown a second firing
// transition must not roll back again.
func TestAutoRollbackFlapGate(t *testing.T) {
	vs := newVersionedStore()
	reg := obs.NewRegistry()
	// Recent window of 1 re-fires on every breaching sample once the
	// alert resolves; the engine's own cooldown is zero so only the
	// manager's rollback cooldown stands between firings and flapping.
	eng, err := alert.NewEngine(alert.Config{
		Rules:   []alert.Rule{{Name: "ge_regression", Kind: alert.KindRegression, Ratio: 2, Baseline: 2, Recent: 1}},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(t, vs, Config{
		RepublishRows:    1 << 30,
		ReservoirSize:    256,
		GESlack:          1e12,
		Metrics:          reg,
		Alerts:           eng,
		AutoRollback:     true,
		RollbackCooldown: time.Hour,
	})
	st, err := m.Stream("m", 0.9, true)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 200, cleanRow)
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	evalGEOK(t, m, "m")
	evalGEOK(t, m, "m")
	pushN(t, st, 60, antiRow)
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err) // v2, bad; gate sample fires the alert, policy rolls back -> v3
	}
	if vs.headVersion("m") != 3 {
		t.Fatalf("head = %d, want 3 after first rollback", vs.headVersion("m"))
	}
	// Force more firing transitions: bad candidates promoted again.
	pushN(t, st, 60, antiRow)
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err) // v4 bad
	}
	head := vs.headVersion("m")
	st.mu.Lock()
	rollbacks := st.autoRollbacks
	st.mu.Unlock()
	if rollbacks != 1 {
		t.Fatalf("autoRollbacks = %d, want 1 (cooldown must gate the second)", rollbacks)
	}
	if head != 4 {
		t.Fatalf("head = %d, want 4 (bad promote, no rollback)", head)
	}
}

// TestAutoRollbackConsumesPendingRows: rows pending when a rollback
// lands fed the model it rejected, so a row-count wake queued before
// it must not re-mine them and promote that model again through the
// disarmed gate. The trigger re-arms after RepublishRows fresh rows.
func TestAutoRollbackConsumesPendingRows(t *testing.T) {
	vs := newVersionedStore()
	reg := obs.NewRegistry()
	m := testManager(t, vs, Config{
		RepublishRows:    100,
		ReservoirSize:    512,
		GESlack:          1e12,
		Metrics:          reg,
		Alerts:           quickEngine(t, reg),
		AutoRollback:     true,
		RollbackCooldown: time.Hour,
	})
	st, err := m.Stream("m", 0.9, true)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 400, cleanRow) // v1..v4, three clean gate samples
	pushN(t, st, 100, antiRow)  // v5, bad: four samples, too few to fire
	pushN(t, st, 60, antiRow)   // pending when the rollback lands
	if head := vs.headVersion("m"); head != 5 {
		t.Fatalf("head = %d, want 5 (bad model promoted)", head)
	}
	evalGEOK(t, m, "m") // baseline 3 clean, recent 2 bad: fires, rolls back
	if head := vs.headVersion("m"); head != 6 {
		t.Fatalf("head after rollback = %d, want 6", head)
	}
	if s, _ := m.Status("m"); s.Pending != 0 {
		t.Fatalf("pending after rollback = %d, want 0", s.Pending)
	}

	// Stale wakes, with and without a few fresh rows behind them.
	m.republishIfDirty(context.Background(), "m", true)
	pushN(t, st, 30, antiRow)
	m.republishIfDirty(context.Background(), "m", true)
	if head := vs.headVersion("m"); head != 6 {
		t.Fatalf("head after stale wakes = %d, want 6 (rolled-back head kept)", head)
	}

	pushN(t, st, 70, antiRow) // RepublishRows fresh rows: the trigger fires
	if head := vs.headVersion("m"); head != 7 {
		t.Fatalf("head after fresh rows = %d, want 7", head)
	}
	if v := reg.Snapshot()["rr_online_auto_rollbacks_total"]; v != 1 {
		t.Fatalf("rr_online_auto_rollbacks_total = %v, want 1", v)
	}
}

// TestCheckpointResumeGEHistory: kill/restart must preserve the GE
// ring, gate outcomes, version annotations and rollback counters so
// trend detection does not restart blind.
func TestCheckpointResumeGEHistory(t *testing.T) {
	dir := t.TempDir()
	fs := newFakeStore()
	m := testManager(t, fs, Config{
		RepublishRows: 1 << 30,
		CheckpointDir: dir,
	})
	st, err := m.Stream("m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 60, cleanRow)
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 60, cleanRow)
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		evalGEOK(t, m, "m")
	}
	st.mu.Lock()
	wantHistory := append([]GESample(nil), st.geHistory...)
	wantOutcomes := append([]bool(nil), st.outcomes...)
	wantEps := st.geEps
	st.mu.Unlock()
	if len(wantHistory) != 4 { // 1 gate sample + 3 evals
		t.Fatalf("precondition: history = %d, want 4", len(wantHistory))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := testManager(t, fs, Config{RepublishRows: 1 << 30, CheckpointDir: dir})
	st2 := m2.lookup("m")
	if st2 == nil {
		t.Fatal("stream not resumed")
	}
	st2.mu.Lock()
	defer st2.mu.Unlock()
	if len(st2.geHistory) != len(wantHistory) {
		t.Fatalf("resumed history = %d samples, want %d", len(st2.geHistory), len(wantHistory))
	}
	for i := range wantHistory {
		got, want := st2.geHistory[i], wantHistory[i]
		if got.ServedGE != want.ServedGE || got.Source != want.Source ||
			got.Version != want.Version || !got.T.Equal(want.T) {
			t.Fatalf("sample %d = %+v, want %+v", i, got, want)
		}
	}
	if len(st2.outcomes) != len(wantOutcomes) {
		t.Fatalf("resumed outcomes = %v, want %v", st2.outcomes, wantOutcomes)
	}
	if st2.geEps != wantEps {
		t.Fatalf("resumed eps = %v, want %v", st2.geEps, wantEps)
	}
	if _, ok := st2.versionGE[2]; !ok {
		t.Fatalf("versionGE not resumed: %v", st2.versionGE)
	}
}

// TestGEEvalTick: Start with GEEvalEvery must produce eval samples
// without any manual EvalGE calls.
func TestGEEvalTick(t *testing.T) {
	fs := newFakeStore()
	m := testManager(t, fs, Config{
		RepublishRows: 1 << 30,
		GEEvalEvery:   5 * time.Millisecond,
	})
	st, err := m.Stream("m", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, st, 40, cleanRow)
	if _, err := m.Republish(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	m.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st.mu.Lock()
		n := len(st.geHistory)
		st.mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("eval tick produced %d samples, want >= 2", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
