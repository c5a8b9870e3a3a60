// Package online closes the loop between ingest and serving: it owns a
// mutex-guarded core.StreamMiner per model name, accumulates rows pushed
// over HTTP (POST /v1/rules/{name}/ingest), and continuously re-derives
// Ratio Rules from the live sufficient statistics — the paper's
// single-pass algorithm (Fig. 2) run as a resident process instead of a
// one-shot batch job.
//
// Publication is gated on the paper's own quality measure: the manager
// keeps a reservoir-sampled holdout of ingested rows, and a re-mined
// candidate is promoted to the model store only when its guessing error
// GE₁ (Def. 1) does not regress beyond a configurable slack relative to
// the currently served version. Candidates that regress are counted,
// logged, and dropped; the served model never silently degrades because
// a burst of junk rows arrived.
//
// Republishing triggers on a row-count threshold (Config.RepublishRows),
// on a wall-clock interval (Config.RepublishEvery) once Start has been
// called, or explicitly via Republish. Stream state survives restarts:
// each stream's sufficient statistics, reservoir and gate counters are
// checkpointed into Config.CheckpointDir (atomic tmp+rename writes) on
// Close and every Config.CheckpointEvery republishes, and NewManager
// reloads whatever checkpoints it finds, so a crash-recovered server
// resumes accumulating instead of restarting from zero.
//
// Everything is observable: rr_online_* metrics (see metrics.go) and
// online.ingest.row / online.republish / online.ge_gate trace spans
// through the obs and obs/trace layers.
package online

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/alert"
	"ratiorules/internal/obs/trace"
)

// ModelStore is where promoted models go, under store.Store's own
// method names: a *store.Store (and the server.Registry embedding one)
// satisfies it, so promotions flow through the same versioned,
// journaled PutContext path as every other mutation (ETags advance,
// rollback applies).
type ModelStore interface {
	PutContext(ctx context.Context, name string, rules *core.Rules) (int, error)
	Get(name string) (*core.Rules, int, bool)
}

// Sentinel errors mapped to HTTP envelope codes by internal/server.
var (
	// ErrDecayConflict marks an ingest that requested a decay different
	// from the one the existing stream was created with (HTTP 409).
	ErrDecayConflict = errors.New("online: stream exists with a different decay")
	// ErrNoStream marks operations on a model with no live stream.
	ErrNoStream = errors.New("online: no stream for model")
)

// Defaults for Config zero values.
const (
	// DefaultRepublishRows is the row-count republish trigger.
	DefaultRepublishRows = 256
	// DefaultGESlack is the allowed relative GE₁ regression: a candidate
	// is promoted when candGE <= servedGE * (1 + slack).
	DefaultGESlack = 0.05
	// DefaultReservoirSize is the holdout reservoir capacity in rows.
	DefaultReservoirSize = 256
	// DefaultCheckpointEvery is how many republishes pass between
	// checkpoint writes (checkpoints also happen on Close).
	DefaultCheckpointEvery = 8
)

// Config tunes a Manager. The zero value selects the defaults above
// with no interval trigger, no checkpointing, and silent observability.
type Config struct {
	// RepublishRows re-mines a stream once this many rows accumulated
	// since its last republish; <= 0 selects DefaultRepublishRows.
	RepublishRows int
	// RepublishEvery re-mines every dirty stream on this interval once
	// Start has been called; 0 disables the interval trigger.
	RepublishEvery time.Duration
	// GESlack is the allowed relative GE₁ regression before the gate
	// rejects a candidate; < 0 selects DefaultGESlack (0 is honored:
	// any regression rejects).
	GESlack float64
	// ReservoirSize caps the holdout reservoir; <= 0 selects
	// DefaultReservoirSize.
	ReservoirSize int
	// CheckpointEvery writes a stream checkpoint every N republishes;
	// <= 0 selects DefaultCheckpointEvery. Ignored without CheckpointDir.
	CheckpointEvery int
	// CheckpointDir is where stream checkpoints live; "" disables
	// durable stream state.
	CheckpointDir string
	// Seed makes reservoir sampling reproducible (per-stream RNGs are
	// derived from it and the model name).
	Seed int64
	// Logger receives promotion/rejection/checkpoint lines; nil is
	// silent.
	Logger *slog.Logger
	// Metrics receives the rr_online_* families; nil selects
	// obs.Default().
	Metrics *obs.Registry
	// Tracer roots online.republish spans for background republishes
	// that have no request trace to join; nil leaves them untraced.
	Tracer *trace.Tracer

	// GEEvalEvery re-scores every stream's served model against its
	// current reservoir on this interval once Start has been called,
	// keeping the GE time series moving between republishes; 0 disables
	// the tick (gate decisions still record samples).
	GEEvalEvery time.Duration
	// GEHistorySize caps the per-stream GE sample ring; <= 0 selects
	// DefaultGEHistorySize.
	GEHistorySize int
	// Alerts evaluates quality rules after every GE sample; nil builds
	// an engine with alert.DefaultRules on Metrics/Logger.
	Alerts *alert.Engine
	// AutoRollback lets a firing sustained-regression alert restore the
	// best prior version (see monitor.go). Off by default.
	AutoRollback bool
	// RollbackMargin is the relative GE improvement a prior version
	// must show before auto-rollback prefers it; <= 0 selects
	// DefaultRollbackMargin.
	RollbackMargin float64
	// RollbackCooldown spaces auto-rollbacks of one stream; <= 0
	// selects DefaultRollbackCooldown.
	RollbackCooldown time.Duration
}

// withDefaults normalizes the zero values.
func (c Config) withDefaults() Config {
	if c.RepublishRows <= 0 {
		c.RepublishRows = DefaultRepublishRows
	}
	if c.GESlack < 0 {
		c.GESlack = DefaultGESlack
	}
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = DefaultReservoirSize
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.GEHistorySize <= 0 {
		c.GEHistorySize = DefaultGEHistorySize
	}
	if c.RollbackMargin <= 0 {
		c.RollbackMargin = DefaultRollbackMargin
	}
	if c.RollbackCooldown <= 0 {
		c.RollbackCooldown = DefaultRollbackCooldown
	}
	return c
}

// Manager owns the live streams and the republish/promotion machinery.
// Construct with NewManager; safe for concurrent use.
type Manager struct {
	cfg   Config
	store ModelStore
	met   *onlineMetrics

	mu      sync.Mutex
	streams map[string]*Stream
	started bool
	closed  bool

	wake chan string
	done chan struct{}
	wg   sync.WaitGroup
}

// NewManager builds a manager over the model store, reloading any stream
// checkpoints found in cfg.CheckpointDir (corrupt checkpoint files are
// logged and skipped — a half-written checkpoint must not take the
// server down). The returned manager accepts ingest immediately;
// row-count republish triggers fire synchronously until Start launches
// the background republisher.
func NewManager(store ModelStore, cfg Config) (*Manager, error) {
	if store == nil {
		return nil, errors.New("online: nil model store")
	}
	cfg = cfg.withDefaults()
	if cfg.Alerts == nil {
		eng, err := alert.NewEngine(alert.Config{
			Rules:   alert.DefaultRules(),
			Metrics: cfg.Metrics,
			Logger:  cfg.Logger,
		})
		if err != nil {
			return nil, err
		}
		cfg.Alerts = eng
	}
	m := &Manager{
		cfg:     cfg,
		store:   store,
		met:     newOnlineMetrics(cfg.Metrics),
		streams: make(map[string]*Stream),
		wake:    make(chan string, 64),
		done:    make(chan struct{}),
	}
	if cfg.CheckpointDir != "" {
		if err := m.loadCheckpoints(); err != nil {
			return nil, err
		}
	}
	m.met.streams.Set(float64(len(m.streams)))
	return m, nil
}

// Start launches the background republisher: it drains row-count wake
// requests and, when Config.RepublishEvery is set, re-mines every dirty
// stream on that interval. Idempotent; Close stops it.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.closed {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	m.wg.Add(1)
	go m.loop()
}

func (m *Manager) loop() {
	defer m.wg.Done()
	var tickC <-chan time.Time
	if m.cfg.RepublishEvery > 0 {
		tick := time.NewTicker(m.cfg.RepublishEvery)
		defer tick.Stop()
		tickC = tick.C
	}
	var geTickC <-chan time.Time
	if m.cfg.GEEvalEvery > 0 {
		geTick := time.NewTicker(m.cfg.GEEvalEvery)
		defer geTick.Stop()
		geTickC = geTick.C
	}
	for {
		select {
		case <-m.done:
			return
		case name := <-m.wake:
			// A queued wake may be stale (an earlier republish or an
			// auto-rollback already consumed the pending rows);
			// republishIfDirty makes the duplicate a no-op instead of an
			// empty republish.
			m.republishIfDirty(context.Background(), name, true)
		case <-tickC:
			for _, name := range m.Names() {
				m.republishIfDirty(context.Background(), name, false)
			}
		case <-geTickC:
			m.evalAll(context.Background())
		}
	}
}

// Close stops the background republisher and checkpoints every stream.
// The manager rejects no further ingest (streams stay readable); Close
// is idempotent and returns the first checkpoint error.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	started := m.started
	m.mu.Unlock()
	close(m.done)
	if started {
		m.wg.Wait()
	}
	return m.CheckpointAll()
}

// Names lists the live stream names, sorted.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.streams))
	for n := range m.streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stream fetches or creates the live stream for a model. A new stream
// takes the given decay; an existing stream keeps its own, and the call
// fails with ErrDecayConflict when explicitDecay demands a different
// one (clients that omit the decay parameter join whatever is running).
func (m *Manager) Stream(name string, decay float64, explicitDecay bool) (*Stream, error) {
	if name == "" {
		return nil, errors.New("online: empty model name")
	}
	if decay < 0 || decay >= 1 {
		return nil, fmt.Errorf("online: decay %v outside [0, 1)", decay)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.streams[name]; ok {
		if explicitDecay && st.decay != decay {
			return nil, fmt.Errorf("%w: stream %q runs decay %v, requested %v",
				ErrDecayConflict, name, st.decay, decay)
		}
		return st, nil
	}
	st := m.newStream(name, decay)
	m.streams[name] = st
	m.met.streams.Set(float64(len(m.streams)))
	return st, nil
}

// newStream builds an empty stream; callers hold m.mu.
func (m *Manager) newStream(name string, decay float64) *Stream {
	return &Stream{
		mgr:       m,
		name:      name,
		decay:     decay,
		rng:       rand.New(rand.NewSource(streamSeed(m.cfg.Seed, name))),
		versionGE: make(map[int]float64),
	}
}

// streamSeed derives a per-stream RNG seed from the configured seed and
// the model name, so reservoir sampling is reproducible per model.
func streamSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// lookup returns the live stream or nil.
func (m *Manager) lookup(name string) *Stream {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.streams[name]
}

// Drop removes a model's stream and its checkpoint file, reporting
// whether a stream existed. Served model versions are untouched.
func (m *Manager) Drop(name string) bool {
	m.mu.Lock()
	st, ok := m.streams[name]
	delete(m.streams, name)
	m.met.streams.Set(float64(len(m.streams)))
	m.mu.Unlock()
	if ok {
		st.mu.Lock()
		m.met.reservoir.Add(-float64(len(st.reservoir)))
		st.mu.Unlock()
		m.removeCheckpoint(name)
		if m.cfg.Alerts != nil {
			m.cfg.Alerts.Drop(name)
		}
	}
	return ok
}

// StreamStatus is the externally visible state of one live stream
// (GET /v1/rules/{name}/stream).
type StreamStatus struct {
	Name          string  `json:"name"`
	Width         int     `json:"width"` // 0 until the first row arrives
	Decay         float64 `json:"decay"`
	Rows          int     `json:"rows"`
	Pending       int     `json:"pending"` // rows since the last republish
	ReservoirRows int     `json:"reservoir_rows"`
	Republishes   int     `json:"republishes"`
	Promotions    int     `json:"promotions"`
	Rejections    int     `json:"rejections"`
	LastVersion   int     `json:"last_version,omitempty"` // last promoted store version
	LastCandGE    float64 `json:"last_candidate_ge,omitempty"`
	LastServedGE  float64 `json:"last_served_ge,omitempty"`
}

// Status reports a stream's state, or ok=false without one.
func (m *Manager) Status(name string) (StreamStatus, bool) {
	st := m.lookup(name)
	if st == nil {
		return StreamStatus{}, false
	}
	return st.status(), true
}

// Stream is one model's live accumulator: the mutex-guarded StreamMiner,
// the holdout reservoir, and the gate counters. Obtain from
// Manager.Stream; safe for concurrent use.
type Stream struct {
	mgr   *Manager
	name  string
	decay float64

	mu        sync.Mutex
	sm        *core.StreamMiner // nil until the first row fixes the width
	reservoir [][]float64       // holdout rows (owned copies)
	seen      int               // rows offered to the reservoir, ever
	rng       *rand.Rand
	pending   int // rows since the last republish
	// rolledBack is set when an auto-rollback consumed the pending rows
	// and cleared by the next republish (see republishIfDirty).
	rolledBack bool

	republishes  int
	promotions   int
	rejections   int
	sinceCkpt    int // republishes since the last checkpoint write
	lastVersion  int
	lastCandGE   float64
	lastServedGE float64

	// Quality monitoring (monitor.go): the bounded served-GE series,
	// trailing gate outcomes, per-version GE annotations for the
	// auto-rollback candidate search, and the rollback flap gate.
	geHistory     []GESample
	outcomes      []bool
	versionGE     map[int]float64
	geEps         float64 // noise floor for relative alert thresholds
	autoRollbacks int
	lastRollback  time.Time
}

// Push folds one row into the stream and the holdout reservoir,
// returning the total row count. The first row fixes the stream width;
// later rows of a different width fail with core.ErrWidth. Crossing the
// row-count threshold hands the stream to the background republisher
// (or republishes synchronously when Start was never called, so
// embedded managers still make progress).
func (s *Stream) Push(ctx context.Context, row []float64) (int, error) {
	_, sp := trace.Start(ctx, "online.ingest.row")
	count, trigger, err := s.push(row)
	if sp != nil {
		sp.SetAttr("model", s.name)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	if err != nil {
		s.mgr.met.rows.With("error").Inc()
		return count, err
	}
	s.mgr.met.rows.With("ok").Inc()
	if trigger {
		s.mgr.triggerRepublish(ctx, s.name)
	}
	return count, nil
}

// push does the locked part of Push, reporting whether the row-count
// republish trigger fired.
func (s *Stream) push(row []float64) (count int, trigger bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sm == nil {
		sm, err := core.NewStreamMiner(len(row), s.decay)
		if err != nil {
			return 0, false, err
		}
		s.sm = sm
	}
	if err := s.sm.Push(row); err != nil {
		return s.sm.Count(), false, err
	}
	s.reservoirOffer(row)
	s.pending++
	return s.sm.Count(), s.pending >= s.mgr.cfg.RepublishRows, nil
}

// reservoirOffer runs one step of Vitter's Algorithm R: the first
// ReservoirSize rows fill the holdout, after which row i replaces a
// random slot with probability size/i — leaving a uniform sample of
// everything ever ingested, which is what makes GE on the holdout an
// honest estimate rather than a recency-biased one. Callers hold s.mu.
// The reservoir gauge aggregates across streams (model names never
// become metric labels — unbounded cardinality).
func (s *Stream) reservoirOffer(row []float64) {
	s.seen++
	size := s.mgr.cfg.ReservoirSize
	if len(s.reservoir) < size {
		s.reservoir = append(s.reservoir, append([]float64(nil), row...))
		s.mgr.met.reservoir.Inc()
	} else if j := s.rng.Intn(s.seen); j < size {
		s.reservoir[j] = append([]float64(nil), row...)
	}
}

// status snapshots the stream under its lock.
func (s *Stream) status() StreamStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StreamStatus{
		Name:          s.name,
		Decay:         s.decay,
		Pending:       s.pending,
		ReservoirRows: len(s.reservoir),
		Republishes:   s.republishes,
		Promotions:    s.promotions,
		Rejections:    s.rejections,
		LastVersion:   s.lastVersion,
		LastCandGE:    s.lastCandGE,
		LastServedGE:  s.lastServedGE,
	}
	if s.sm != nil {
		st.Width = s.sm.Width()
		st.Rows = s.sm.Count()
	}
	return st
}

// triggerRepublish routes a row-count trigger: to the background loop
// when it runs (never blocking the ingest hot path — a full wake queue
// drops the request, and the still-pending rows re-fire it on the next
// row), synchronously otherwise.
func (m *Manager) triggerRepublish(ctx context.Context, name string) {
	m.mu.Lock()
	started := m.started && !m.closed
	m.mu.Unlock()
	if started {
		select {
		case m.wake <- name:
		default:
		}
		return
	}
	m.republishIfDirty(ctx, name, true)
}

// republishIfDirty republishes only when rows arrived since the last
// republish, absorbing duplicate wake requests. After an auto-rollback
// a row-count wake needs RepublishRows fresh rows: a wake queued before
// it would re-mine the statistics whose model the rollback just
// rejected, and a permissive gate would promote that model again.
func (m *Manager) republishIfDirty(ctx context.Context, name string, wake bool) {
	st := m.lookup(name)
	if st == nil {
		return
	}
	st.mu.Lock()
	dirty := st.pending > 0
	if wake && st.rolledBack {
		dirty = st.pending >= m.cfg.RepublishRows
	}
	st.mu.Unlock()
	if !dirty {
		return
	}
	if _, err := m.Republish(ctx, name); err != nil && !errors.Is(err, errTooFewRows) {
		m.cfg.Logger.Warn("online republish failed", "model", name, "err", err)
	}
}

// errTooFewRows marks a republish attempt before the stream can mine.
var errTooFewRows = errors.New("online: too few rows to mine")

// RepublishResult reports one republish attempt.
type RepublishResult struct {
	// Promoted is true when the candidate passed the GE gate and was
	// written to the model store as Version.
	Promoted bool `json:"promoted"`
	// Version is the store version of the promoted model (0 when the
	// candidate was rejected).
	Version int `json:"version,omitempty"`
	// CandidateGE and ServedGE are the gate inputs: GE₁ of the re-mined
	// candidate and of the currently served model on the holdout.
	// ServedGE is 0 when nothing was served yet.
	CandidateGE float64 `json:"candidate_ge"`
	ServedGE    float64 `json:"served_ge"`
	// Reason explains the decision ("first_publish", "ge_ok",
	// "ge_regressed", "width_changed").
	Reason string `json:"reason"`
}

// Republish re-mines a stream's rules and runs the GE gate: the
// candidate is promoted to the model store only when its GE₁ on the
// holdout does not exceed the served model's by more than the
// configured slack. The eigensolve runs on a point-in-time copy of the
// sufficient statistics, so ingest keeps flowing while it solves.
func (m *Manager) Republish(ctx context.Context, name string) (RepublishResult, error) {
	ctx, sp := trace.Start(ctx, "online.republish")
	if sp == nil && m.cfg.Tracer != nil {
		// Background republishes have no request trace to join; root a
		// fresh one so the flight recorder still sees them.
		ctx, sp = m.cfg.Tracer.StartRoot(ctx, "online.republish", trace.SpanContext{})
	}
	start := time.Now()
	res, err := m.republish(ctx, name)
	elapsed := time.Since(start)
	m.met.republishSeconds.Observe(elapsed.Seconds())
	switch {
	case errors.Is(err, errTooFewRows):
		m.met.republishes.With("skipped").Inc()
	case err != nil:
		m.met.republishes.With("error").Inc()
	case res.Promoted:
		m.met.republishes.With("promoted").Inc()
	default:
		m.met.republishes.With("rejected").Inc()
	}
	if sp != nil {
		sp.SetAttr("model", name)
		sp.SetAttr("promoted", err == nil && res.Promoted)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return res, err
}

func (m *Manager) republish(ctx context.Context, name string) (RepublishResult, error) {
	st := m.lookup(name)
	if st == nil {
		return RepublishResult{}, fmt.Errorf("%w: %q", ErrNoStream, name)
	}

	// Snapshot under the stream lock: Clone is an O(M²) copy, the
	// eigensolve below is O(M³) and runs on the copy, so pushes stall
	// only for the cheap part. The reservoir slice header is copied;
	// rows are immutable once sampled (offer stores fresh copies), so
	// sharing them with a concurrent replacement is safe — the holdout
	// is simply the sample as of this instant.
	st.mu.Lock()
	if st.sm == nil || st.sm.Count() < 2 {
		count := 0
		if st.sm != nil {
			count = st.sm.Count()
		}
		st.mu.Unlock()
		return RepublishResult{}, fmt.Errorf("%w: %q has %d rows", errTooFewRows, name, count)
	}
	clone := st.sm.Clone()
	holdout := append([][]float64(nil), st.reservoir...)
	st.pending = 0
	st.rolledBack = false
	st.republishes++
	st.mu.Unlock()

	candidate, err := clone.Rules()
	if err != nil {
		return RepublishResult{}, fmt.Errorf("online: mining stream %q: %w", name, err)
	}

	res, err := m.geGate(ctx, name, candidate, holdout)
	if err != nil {
		return res, err
	}

	if res.Promoted {
		version, err := m.store.PutContext(ctx, name, candidate)
		if err != nil {
			return RepublishResult{}, fmt.Errorf("online: promoting %q: %w", name, err)
		}
		res.Version = version
		m.met.promotions.Inc()
		m.cfg.Logger.Info("online model promoted",
			"model", name, "version", version, "reason", res.Reason,
			"candidate_ge", res.CandidateGE, "served_ge", res.ServedGE,
			"rows", candidate.TrainedRows(), "holdout", len(holdout))
	} else {
		m.met.rejections.Inc()
		m.cfg.Logger.Warn("online candidate rejected by GE gate",
			"model", name, "reason", res.Reason,
			"candidate_ge", res.CandidateGE, "served_ge", res.ServedGE,
			"slack", m.cfg.GESlack, "holdout", len(holdout))
	}

	// Gate decisions with real GE numbers feed the quality series;
	// first_publish and width_changed promote without a comparable
	// baseline (their GEs are zero), so the eval tick fills those in.
	measured := res.Reason == "ge_ok" || res.Reason == "ge_regressed"

	st.mu.Lock()
	if res.Promoted {
		st.promotions++
		st.lastVersion = res.Version
	} else {
		st.rejections++
	}
	st.lastCandGE = res.CandidateGE
	st.lastServedGE = res.ServedGE
	if measured {
		st.recordGateSample(res, rmsScale(holdout)*1e-9, m.cfg.GEHistorySize)
	}
	st.sinceCkpt++
	ckpt := m.cfg.CheckpointDir != "" && st.sinceCkpt >= m.cfg.CheckpointEvery
	if ckpt {
		st.sinceCkpt = 0
	}
	st.mu.Unlock()
	if res.Promoted && measured {
		m.annotateVersionGE(name, res.Version, res.CandidateGE)
	}
	if measured {
		m.runAlerts(ctx, name)
	}
	if ckpt {
		m.checkpointLogged(st)
	}
	return res, nil
}

// geGate decides promotion: compare the candidate's GE₁ on the holdout
// against the served model's. No served model, or a served model of a
// different width (the stream was re-created with a new schema), always
// promotes — there is no comparable baseline to defend.
func (m *Manager) geGate(ctx context.Context, name string, candidate *core.Rules, holdout [][]float64) (RepublishResult, error) {
	_, sp := trace.Start(ctx, "online.ge_gate")
	start := time.Now()
	defer func() {
		m.met.geGateSeconds.Observe(time.Since(start).Seconds())
		if sp != nil {
			sp.SetAttr("model", name)
			sp.SetAttr("holdout_rows", len(holdout))
			sp.End()
		}
	}()

	served, _, ok := m.store.Get(name)
	if !ok {
		return RepublishResult{Promoted: true, Reason: "first_publish"}, nil
	}
	if served.Width() != candidate.Width() {
		return RepublishResult{Promoted: true, Reason: "width_changed"}, nil
	}

	test, err := matrix.FromRows(holdout)
	if err != nil {
		return RepublishResult{}, fmt.Errorf("online: building holdout for %q: %w", name, err)
	}
	candGE, err := core.GE1(candidate, test)
	if err != nil {
		return RepublishResult{}, fmt.Errorf("online: candidate GE for %q: %w", name, err)
	}
	servedGE, err := core.GE1(served, test)
	if err != nil {
		return RepublishResult{}, fmt.Errorf("online: served GE for %q: %w", name, err)
	}
	m.met.ge.With("candidate").Set(candGE)
	m.met.ge.With("served").Set(servedGE)

	// The epsilon floor keeps eigensolve round-off from tripping the
	// gate: on perfectly ratio-structured data both GEs sit at ~1e-16
	// of the cell magnitude, and a relative slack on a served GE of
	// exactly zero would reject that noise.
	eps := rmsScale(holdout) * 1e-9
	res := RepublishResult{CandidateGE: candGE, ServedGE: servedGE}
	if candGE <= servedGE*(1+m.cfg.GESlack)+eps {
		res.Promoted = true
		res.Reason = "ge_ok"
	} else {
		res.Reason = "ge_regressed"
	}
	return res, nil
}

// rmsScale is the root-mean-square magnitude of the holdout cells —
// the natural unit GE values are measured in.
func rmsScale(rows [][]float64) float64 {
	var sum float64
	n := 0
	for _, row := range rows {
		for _, v := range row {
			sum += v * v
		}
		n += len(row)
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}
