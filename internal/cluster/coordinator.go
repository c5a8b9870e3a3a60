package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/online"
)

// Defaults for Config zero values.
const (
	// DefaultChunkRows is the fan-out chunk size. Large enough that
	// per-chunk costs (frame header, CRC, ack, scheduling) amortize to
	// a few ns/row, small enough that acks stay prompt.
	DefaultChunkRows = 512
	// DefaultPullEvery is the pull-merge-republish cadence. It also
	// bounds data loss on worker death: rows a worker folded after its
	// last pull die with it.
	DefaultPullEvery = 2 * time.Second
	// DefaultPullRetries is how many times a shard pull is retried
	// (with backoff) before the merge degrades to the retained shard.
	DefaultPullRetries = 3
	// DefaultBackoff is the initial retry backoff, doubling per attempt.
	DefaultBackoff = 100 * time.Millisecond
	// DefaultHealthEvery is the membership probe interval.
	DefaultHealthEvery = time.Second
	// DefaultRepublishRows triggers an early pull-merge-republish once
	// this many acked rows accumulate for one model.
	DefaultRepublishRows = 65536
)

// ErrNoWorkers means no healthy worker remains to take rows.
var ErrNoWorkers = errors.New("cluster: no healthy workers")

// ErrUnknownModel means a merge was requested for a model no ingest
// session has ever registered with this coordinator.
var ErrUnknownModel = errors.New("cluster: unknown model")

// Config tunes a Coordinator.
type Config struct {
	// Workers is the initial member list (base URLs, e.g.
	// "http://10.0.0.7:9301"). More can join at runtime.
	Workers []string
	// Manager runs the merge-side gate and publish; required.
	Manager *online.Manager
	// ChunkRows, PullEvery, PullRetries, Backoff, HealthEvery,
	// RepublishRows: see the defaults above.
	ChunkRows     int
	PullEvery     time.Duration
	PullRetries   int
	Backoff       time.Duration
	HealthEvery   time.Duration
	RepublishRows int
	// Metrics receives the rr_cluster_* families; nil selects
	// obs.Default().
	Metrics *obs.Registry
	// Tracer roots cluster.merge spans for background merges; nil
	// leaves them untraced.
	Tracer *trace.Tracer
	// Logger receives membership and merge lines; nil is silent.
	Logger *slog.Logger
	// Client performs worker HTTP; nil builds one with sane keep-alive
	// settings.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.ChunkRows <= 0 || c.ChunkRows > MaxChunkRows {
		c.ChunkRows = DefaultChunkRows
	}
	if c.PullEvery <= 0 {
		c.PullEvery = DefaultPullEvery
	}
	if c.PullRetries <= 0 {
		c.PullRetries = DefaultPullRetries
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = DefaultHealthEvery
	}
	if c.RepublishRows <= 0 {
		c.RepublishRows = DefaultRepublishRows
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 16
		c.Client = &http.Client{Transport: tr}
	}
	return c
}

// member is one worker as the coordinator sees it. Fields are guarded
// by the coordinator's mu.
type member struct {
	url      string
	healthy  bool
	instance string // last instance reported by /healthz
	lastErr  string
}

// modelState is the coordinator's per-model bookkeeping.
type modelState struct {
	width    int
	decay    float64
	pending  int   // acked rows since the last merge-republish
	accepted int64 // lifetime acked rows, reported on public ack lines
}

// Coordinator fans public ingest out to workers and owns the only
// merge + gate + publish path, so the cluster behaves like one fast
// node: exactly one model version sequence, one GE gate, one alert
// stream.
type Coordinator struct {
	cfg    Config
	met    *clusterMetrics
	client *http.Client
	log    *slog.Logger

	mu       sync.Mutex
	members  []*member
	ring     *hashRing
	tainted  map[string]bool                         // instances barred until process restart
	retained map[string]map[string]*core.StreamMiner // model -> instance -> last pulled shard
	models   map[string]*modelState
	degraded bool // last merge cycle substituted a retained shard
	started  bool
	closed   bool

	wake chan string
	done chan struct{}
	wg   sync.WaitGroup
}

// New builds a Coordinator over the given workers. Call Start to begin
// health probing and the merge loop.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Manager == nil {
		return nil, errors.New("cluster: coordinator requires an online manager")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		met:      newClusterMetrics(cfg.Metrics),
		client:   cfg.Client,
		log:      cfg.Logger,
		tainted:  make(map[string]bool),
		retained: make(map[string]map[string]*core.StreamMiner),
		models:   make(map[string]*modelState),
		wake:     make(chan string, 64),
		done:     make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, u := range cfg.Workers {
		u = normalizeWorkerURL(u)
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		c.members = append(c.members, &member{url: u})
	}
	if len(c.members) == 0 {
		return nil, errors.New("cluster: coordinator requires at least one worker URL")
	}
	c.ring = buildRing(nil)
	return c, nil
}

// normalizeWorkerURL validates and strips a trailing slash.
func normalizeWorkerURL(u string) string {
	p, err := url.Parse(u)
	if err != nil || p.Scheme == "" || p.Host == "" {
		return ""
	}
	p.Path, p.RawQuery, p.Fragment = "", "", ""
	return p.String()
}

// Start probes every member once (so the first session has a ring) and
// launches the health and merge loops.
func (c *Coordinator) Start() {
	c.mu.Lock()
	if c.started || c.closed {
		c.mu.Unlock()
		return
	}
	c.started = true
	members := append([]*member(nil), c.members...)
	c.mu.Unlock()

	for _, m := range members {
		c.probe(m)
	}
	c.rebuildRing()

	c.wg.Add(2)
	go c.healthLoop()
	go c.mergeLoop()
}

// Close stops the loops and runs a final merge-republish for every
// model with pending rows, so acked data is published before shutdown.
func (c *Coordinator) Close(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	started := c.started
	c.mu.Unlock()
	close(c.done)
	if started {
		c.wg.Wait()
	}
	var firstErr error
	for _, name := range c.pendingModels(false) {
		if err := c.mergeAndRepublish(ctx, name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Join adds (or re-probes) a worker URL at runtime: the rejoin path
// after a crash. A restarted process reports a fresh instance, clearing
// any taint that barred its predecessor.
func (c *Coordinator) Join(rawURL string) error {
	u := normalizeWorkerURL(rawURL)
	if u == "" {
		return fmt.Errorf("cluster: bad worker url %q", rawURL)
	}
	c.mu.Lock()
	var m *member
	for _, existing := range c.members {
		if existing.url == u {
			m = existing
			break
		}
	}
	if m == nil {
		m = &member{url: u}
		c.members = append(c.members, m)
	}
	c.mu.Unlock()
	c.probe(m)
	c.rebuildRing()
	c.mu.Lock()
	healthy := m.healthy
	lastErr := m.lastErr
	c.mu.Unlock()
	if !healthy {
		return fmt.Errorf("cluster: worker %s failed join probe: %s", u, lastErr)
	}
	return nil
}

// probe refreshes one member's health and instance. A member whose
// instance is tainted (it lost a fan-out connection while chunks were
// outstanding, and those chunks were resharded elsewhere) stays dead
// until the process restarts under a new instance — readmitting it
// would double-count the resharded rows on merge.
func (c *Coordinator) probe(m *member) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/healthz", nil)
	if err != nil {
		c.setHealth(m, false, "", err.Error())
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.setHealth(m, false, "", err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.setHealth(m, false, "", fmt.Sprintf("healthz status %d", resp.StatusCode))
		return
	}
	var body struct {
		Instance string `json:"instance"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body); err != nil {
		c.setHealth(m, false, "", fmt.Sprintf("healthz body: %v", err))
		return
	}
	c.mu.Lock()
	if c.tainted[body.Instance] {
		m.healthy = false
		m.instance = body.Instance
		m.lastErr = "instance tainted by a failed fan-out; restart the worker to rejoin"
		c.mu.Unlock()
		return
	}
	m.healthy = true
	m.instance = body.Instance
	m.lastErr = ""
	c.mu.Unlock()
}

// setHealth records a probe outcome.
func (c *Coordinator) setHealth(m *member, healthy bool, instance, errMsg string) {
	c.mu.Lock()
	m.healthy = healthy
	if instance != "" {
		m.instance = instance
	}
	m.lastErr = errMsg
	c.mu.Unlock()
}

// markFailed takes a member out of rotation after a fan-out error.
// taint bars its instance permanently when unacked chunks were
// resharded away from it (see probe).
func (c *Coordinator) markFailed(m *member, err error, taint bool) {
	c.mu.Lock()
	wasHealthy := m.healthy
	m.healthy = false
	if err != nil {
		m.lastErr = err.Error()
	}
	if taint && m.instance != "" {
		c.tainted[m.instance] = true
	}
	c.mu.Unlock()
	if wasHealthy {
		c.log.Warn("cluster worker failed", "worker", m.url, "err", err, "tainted", taint)
		c.rebuildRing()
	}
}

// rebuildRing recomputes the consistent-hash ring over the currently
// healthy members.
func (c *Coordinator) rebuildRing() {
	c.mu.Lock()
	healthy := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		if m.healthy {
			healthy = append(healthy, m)
		}
	}
	c.ring = buildRing(healthy)
	c.met.membersHealthy.Set(float64(len(healthy)))
	c.met.membersTotal.Set(float64(len(c.members)))
	c.mu.Unlock()
	c.met.reshardings.Inc()
}

// pick returns the ring owner for a chunk key, skipping members in the
// not set (used when resharding away from a failure).
func (c *Coordinator) pick(key uint64, not map[*member]bool) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ring.points) == 0 {
		return nil
	}
	m := c.ring.lookup(key)
	if m == nil || !not[m] {
		return m
	}
	// Walk the healthy list for any survivor not excluded.
	for _, cand := range c.members {
		if cand.healthy && !not[cand] {
			return cand
		}
	}
	return nil
}

// healthLoop probes membership on the configured cadence, resharding on
// every transition.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.mu.Lock()
			members := append([]*member(nil), c.members...)
			before := c.healthFingerprint()
			c.mu.Unlock()
			for _, m := range members {
				c.probe(m)
			}
			c.mu.Lock()
			after := c.healthFingerprint()
			c.mu.Unlock()
			if before != after {
				c.log.Info("cluster membership changed", "healthy", after)
				c.rebuildRing()
			}
		}
	}
}

// healthFingerprint summarizes membership for change detection; callers
// hold mu.
func (c *Coordinator) healthFingerprint() string {
	parts := make([]string, 0, len(c.members))
	for _, m := range c.members {
		if m.healthy {
			parts = append(parts, m.url+"="+m.instance)
		}
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}

// pendingModels lists models with rows awaiting a merge; when all is
// true, every registered model.
func (c *Coordinator) pendingModels(onlyDirty bool) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.models))
	for name, ms := range c.models {
		if !onlyDirty || ms.pending > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// mergeLoop periodically (and on row-count wakes) pulls every worker's
// shard, merges, and republishes through the online manager.
func (c *Coordinator) mergeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.PullEvery)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case name := <-c.wake:
			c.mergeIfDirty(context.Background(), name)
		case <-t.C:
			for _, name := range c.pendingModels(true) {
				c.mergeIfDirty(context.Background(), name)
			}
		}
	}
}

// mergeIfDirty absorbs duplicate wakes.
func (c *Coordinator) mergeIfDirty(ctx context.Context, name string) {
	c.mu.Lock()
	ms := c.models[name]
	dirty := ms != nil && ms.pending > 0
	c.mu.Unlock()
	if !dirty {
		return
	}
	if err := c.mergeAndRepublish(ctx, name); err != nil && !online.IsTooFewRows(err) {
		c.log.Warn("cluster merge-republish failed", "model", name, "err", err)
	}
}

// pullShard fetches one worker's shard with retry + backoff. found is
// false when the worker has folded nothing for the model (HTTP 404).
func (c *Coordinator) pullShard(ctx context.Context, m *member, name string) (sm *core.StreamMiner, instance string, found bool, err error) {
	ctx, sp := trace.Start(ctx, "cluster.shard_pull")
	start := time.Now()
	defer func() {
		c.met.pullSeconds.Observe(time.Since(start).Seconds())
		if sp != nil {
			sp.SetAttr("worker", m.url)
			sp.SetAttr("found", found)
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}
	}()
	backoff := c.cfg.Backoff
	for attempt := 0; attempt < c.cfg.PullRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, "", false, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		sm, instance, found, err = c.pullShardOnce(ctx, m, name)
		if err == nil {
			if found {
				c.met.pulls.With("ok").Inc()
			} else {
				c.met.pulls.With("empty").Inc()
			}
			return sm, instance, found, nil
		}
	}
	c.met.pulls.With("error").Inc()
	return nil, "", false, err
}

func (c *Coordinator) pullShardOnce(ctx context.Context, m *member, name string) (*core.StreamMiner, string, bool, error) {
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		m.url+"/v1/cluster/shard/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, "", false, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, "", false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", false, fmt.Errorf("cluster: shard pull from %s: status %d", m.url, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return nil, "", false, err
	}
	doc, sm, err := DecodeShard(body)
	if err != nil {
		return nil, "", false, err
	}
	return sm, doc.Instance, true, nil
}

// mergeAndRepublish is the cluster's single publish path: pull the live
// shard of every healthy member (falling back to the retained snapshot
// of any instance it cannot reach — degraded mode), merge them all with
// StreamMiner.Merge, and hand the union to the online manager for the
// eigensolve + GE gate + store publish.
func (c *Coordinator) mergeAndRepublish(ctx context.Context, name string) error {
	ctx, sp := trace.Start(ctx, "cluster.merge")
	if sp == nil && c.cfg.Tracer != nil {
		ctx, sp = c.cfg.Tracer.StartRoot(ctx, "cluster.merge", trace.SpanContext{})
	}
	start := time.Now()
	degraded, err := c.mergeAndRepublishInner(ctx, name)
	c.met.mergeSeconds.Observe(time.Since(start).Seconds())
	switch {
	case err != nil && !online.IsTooFewRows(err):
		c.met.merges.With("error").Inc()
	case degraded:
		c.met.merges.With("degraded").Inc()
		c.met.degraded.Inc()
	default:
		c.met.merges.With("ok").Inc()
	}
	c.mu.Lock()
	c.degraded = degraded
	c.mu.Unlock()
	if sp != nil {
		sp.SetAttr("model", name)
		sp.SetAttr("degraded", degraded)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return err
}

func (c *Coordinator) mergeAndRepublishInner(ctx context.Context, name string) (degraded bool, err error) {
	c.mu.Lock()
	ms := c.models[name]
	if ms == nil {
		c.mu.Unlock()
		return false, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	width, decay := ms.width, ms.decay
	ms.pending = 0
	healthy := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		if m.healthy {
			healthy = append(healthy, m)
		}
	}
	c.mu.Unlock()

	merged, err := core.NewStreamMiner(width, decay)
	if err != nil {
		return false, err
	}
	used := make(map[string]bool) // instances already merged live
	for _, m := range healthy {
		sm, instance, found, perr := c.pullShard(ctx, m, name)
		if perr != nil {
			// Unreachable: its retained snapshot (if any) stands in below.
			degraded = true
			c.log.Warn("cluster shard pull failed, degrading to retained shard",
				"model", name, "worker", m.url, "err", perr)
			continue
		}
		if !found {
			continue
		}
		if merr := merged.Merge(sm); merr != nil {
			return degraded, fmt.Errorf("cluster: merging shard from %s: %w", m.url, merr)
		}
		used[instance] = true
		c.retain(name, instance, sm)
	}
	// Retained shards of instances not merged live: dead workers, and
	// live ones whose pull just failed. Their last snapshot keeps every
	// row acked before it was taken; rows folded after it are lost with
	// the worker (bounded by PullEvery).
	c.mu.Lock()
	var stale []*core.StreamMiner
	retainedCount := 0
	for _, byInstance := range c.retained {
		retainedCount += len(byInstance)
	}
	for instance, sm := range c.retained[name] {
		if !used[instance] {
			stale = append(stale, sm)
		}
	}
	c.met.retained.Set(float64(retainedCount))
	c.mu.Unlock()
	for _, sm := range stale {
		degraded = true
		if merr := merged.Merge(sm); merr != nil {
			return degraded, fmt.Errorf("cluster: merging retained shard: %w", merr)
		}
	}

	res, err := c.cfg.Manager.RepublishFrom(ctx, name, merged)
	if err != nil {
		return degraded, err
	}
	c.log.Info("cluster republished merged model",
		"model", name, "rows", merged.Count(), "shards_live", len(used),
		"shards_retained", len(stale), "degraded", degraded,
		"promoted", res.Promoted, "version", res.Version, "reason", res.Reason)
	return degraded, nil
}

// retain stores the latest pulled snapshot for an instance; it answers
// merges after that instance dies.
func (c *Coordinator) retain(name, instance string, sm *core.StreamMiner) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byInstance := c.retained[name]
	if byInstance == nil {
		byInstance = make(map[string]*core.StreamMiner)
		c.retained[name] = byInstance
	}
	byInstance[instance] = sm
}

// MergeNow runs one synchronous pull-merge-republish cycle for a model,
// regardless of pending row counts — the deterministic trigger tests and
// benchmarks need, and the force-republish hook for operators.
func (c *Coordinator) MergeNow(ctx context.Context, name string) error {
	return c.mergeAndRepublish(ctx, name)
}

// Status is the /readyz and /v1/cluster/status view of the cluster.
type Status struct {
	Members  []MemberStatus `json:"members"`
	Healthy  int            `json:"healthy"`
	Degraded bool           `json:"degraded"`
	Retained int            `json:"retained_shards"`
}

// MemberStatus is one worker's row in Status.
type MemberStatus struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Instance string `json:"instance,omitempty"`
	Tainted  bool   `json:"tainted,omitempty"`
	LastErr  string `json:"last_error,omitempty"`
}

// Status snapshots membership and degradation state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{Degraded: c.degraded}
	for _, byInstance := range c.retained {
		s.Retained += len(byInstance)
	}
	for _, m := range c.members {
		ms := MemberStatus{
			URL: m.url, Healthy: m.healthy, Instance: m.instance,
			Tainted: c.tainted[m.instance], LastErr: m.lastErr,
		}
		if m.healthy {
			s.Healthy++
		}
		s.Members = append(s.Members, ms)
	}
	return s
}
