// Package server exposes Ratio Rules mining and reconstruction as a JSON
// HTTP service, so non-Go clients can mine rules once and query them for
// forecasting, what-if analysis and outlier detection. Models live in
// internal/store, whose methods the handlers call directly through
// Registry, which embeds a *store.Store: purely in memory by default,
// or journaled to a write-ahead log with snapshots over a durable store
// (rrserve -data-dir). Every mutation — mine, install, delete, rollback
// — is versioned, and durable stores survive restarts with full
// version history.
//
// Endpoints (Go 1.22 pattern routing):
//
//	POST   /v1/rules                         mine a model from rows
//	GET    /v1/rules                         list model names
//	GET    /v1/rules/{name}                  fetch a model (Rules JSON; ETag/304)
//	PUT    /v1/rules/{name}                  install a model from Rules JSON
//	DELETE /v1/rules/{name}                  drop a model
//	GET    /v1/rules/{name}/versions         list retained versions
//	POST   /v1/rules/{name}/rollback         restore a version as the new head
//	POST   /v1/rules/{name}/fill             reconstruct holes in a record
//	POST   /v1/rules/{name}/forecast         predict one attribute from givens
//	POST   /v1/rules/{name}/whatif           complete a scenario from pinned values
//	POST   /v1/rules/{name}/project          map rows into RR space
//	POST   /v1/rules/{name}/outliers         score rows for cell outliers
//	POST   /v1/rules/{name}/batch/fill       batch fill (JSON array or NDJSON in, NDJSON out)
//	POST   /v1/rules/{name}/batch/forecast   batch forecast (same framing)
//	POST   /v1/rules/{name}/batch/outliers   batch outlier scan (same framing)
//	POST   /v1/rules/{name}/ingest           stream rows into the live accumulator (NDJSON acks out)
//	GET    /v1/rules/{name}/stream           live stream status (rows, reservoir, GE gate tallies)
//	DELETE /v1/rules/{name}/stream           drop the live stream (published versions stay)
//	GET    /v1/rules/{name}/health           model quality: GE trend, firing alerts (ETag/304)
//	GET    /v1/replicate                     WAL replication stream (CRC frames; ?from=N)
//	GET    /healthz                          liveness probe (process up, nothing else)
//	GET    /readyz                           readiness: 503 when the store is wedged
//	GET    /metrics                          Prometheus text exposition (this node)
//	GET    /metrics/fleet                    federated exposition, node="..." labeled (WithFleet)
//	GET    /debug/traces                     flight recorder: recent trace summaries
//	GET    /debug/traces/{id}                one trace's span tree + remote-node references
//	GET    /debug/alerts                     alert engine: rules and per-model states
//	GET    /debug/fleet                      fleet rollup: per-node health, lag, shards, build
//	GET    /debug/admission                  admission snapshot: tenants, buckets, queues
//
// Profiling is not on this surface: rrserve serves net/http/pprof only
// on its -debug-addr side listener, which belongs on localhost or a
// private network.
//
// The server runs as one of three roles (see routes.go): a plain
// leader, a coordinator (WithCluster: adds the /v1/cluster admin
// surface), or a read-only follower (WithFollower: a replica tailing a
// leader's WAL). Followers serve every GET and inference route with
// bodies and ETags byte-identical to the leader at the same replicated
// seq; mutating routes answer 403 read_only naming the leader, and
// /readyz reports replication lag (503 replica_lagging + Retry-After
// past -max-replica-lag). See docs/replication.md.
//
// Every error response — including 404 fallthroughs and 405s — carries
// the uniform envelope {"error": {"code": "...", "message": "..."}} with
// a stable machine-readable code (see the Code* constants). GET
// /v1/rules/{name} carries an ETag derived from the model version and
// honors If-None-Match with 304, so pollers do not re-download unchanged
// rule sets. The model GET and every inference endpoint accept
// ?version=N to pin a retained historical revision instead of the head
// (version_not_found when not retained). Request bodies are capped
// (default 32 MiB, WithMaxBodyBytes) and oversized bodies answer 413;
// the batch endpoints are exempt from the cap because they stream
// row-by-row in bounded memory (see batch.go). Wrong-method requests to
// the /v1/rules paths return 405 with an Allow header. All routes are
// wrapped in the obs middleware; see docs/api.md, docs/observability.md
// and docs/persistence.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ratiorules/internal/admission"
	"ratiorules/internal/cluster"
	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/fleet"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/online"
	"ratiorules/internal/replica"
	"ratiorules/internal/store"
)

// Registry is the versioned model store the handlers serve from: a
// *store.Store, embedded so the handlers, the replication stream and
// the online manager call its methods directly. NewRegistry backs it
// with a memory-only store (full versioning, zero durability), while
// NewRegistryWithStore wraps an opened durable one, whose recovered
// models are served at once.
type Registry struct {
	*store.Store
}

// NewRegistry returns a registry backed by a memory-only store.
func NewRegistry() *Registry { return &Registry{store.OpenMemory()} }

// NewRegistryWithStore returns a registry over an opened store.
func NewRegistryWithStore(st *store.Store) *Registry { return &Registry{st} }

// Put is the store's PutContext under the registry's original name,
// which perfbench drives.
func (r *Registry) Put(ctx context.Context, name string, rules *core.Rules) (int, error) {
	return r.PutContext(ctx, name, rules)
}

// maxRowWidth bounds the attribute count M of a row that sizes an
// accumulator — every mine request and the first ingest row of a new
// stream: mining holds M×M sums and solves them in O(M³), so a wider
// row is refused before either exists. It is the cluster wire's width
// cap, so a row a coordinator accepts is one its workers accept.
const maxRowWidth = cluster.MaxWireWidth

// widthErr reports a row width past maxRowWidth, or nil.
func widthErr(m int) error {
	if m > maxRowWidth {
		return fmt.Errorf("row width %d exceeds the limit of %d attributes", m, maxRowWidth)
	}
	return nil
}

// DefaultMaxBodyBytes caps request bodies unless WithMaxBodyBytes says
// otherwise: 32 MiB comfortably fits millions of cells per mine request
// while stopping accidental (or hostile) unbounded uploads.
const DefaultMaxBodyBytes = 32 << 20

// Handler builds the HTTP handler over a registry. Every route is
// wrapped in the obs middleware (request counters, latency histograms,
// in-flight gauge — see middleware.go), the metrics registry itself is
// exposed at GET /metrics in Prometheus text format, and wrong-method
// hits on known paths answer 405 with an Allow header instead of the
// generic 404 fallthrough.
func Handler(reg *Registry, opts ...HandlerOption) http.Handler {
	cfg := handlerConfig{
		metrics:      obs.Default(),
		logger:       obs.NopLogger(),
		maxBodyBytes: DefaultMaxBodyBytes,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.tracer == nil {
		cfg.tracer = trace.New(trace.Config{
			Logger:  cfg.logger,
			Dropped: obs.SpanDropCounter(cfg.metrics),
		})
	}
	obs.RegisterRuntime(cfg.metrics)
	obs.RegisterBuildInfo(cfg.metrics)
	if cfg.online == nil {
		// A default manager (no checkpoint dir, synchronous row-count
		// republishing) keeps the ingest routes working for embedders
		// that never heard of internal/online; NewManager cannot fail
		// without a checkpoint directory to load.
		cfg.online, _ = online.NewManager(reg, online.Config{
			Logger: cfg.logger, Metrics: cfg.metrics, Tracer: cfg.tracer,
		})
	}
	// The role decides which table entries mount: a plain server is a
	// leader, WithCluster adds the coordinator admin surface, and
	// WithFollower turns the whole instance read-only.
	role := RoleLeader
	if cfg.cluster != nil {
		role |= RoleCoordinator
	}
	if cfg.follower != nil {
		role = RoleFollower
	}
	maxLag := cfg.maxReplicaLag
	if maxLag <= 0 {
		maxLag = DefaultMaxReplicaLag
	}
	m := newHTTPMetrics(cfg.metrics, cfg.logger, cfg.tracer)
	s := &service{
		reg:            reg,
		logger:         cfg.logger,
		batchWorkers:   cfg.batchWorkers,
		batch:          newBatchMetrics(cfg.metrics),
		tracer:         cfg.tracer,
		online:         cfg.online,
		cluster:        cfg.cluster,
		failed:         reg.Failed,
		metricsHandler: cfg.metrics.Handler(),
		fleet:          cfg.fleet,
		role:           role,
		admission:      cfg.admission,
		follower:       cfg.follower,
		leaderURL:      cfg.leaderURL,
		maxReplicaLag:  maxLag,
		replication: &replica.Handler{
			Store:  reg.Store,
			Logger: cfg.logger,
			WriteError: func(w http.ResponseWriter, status int, err error) {
				writeErr(w, status, CodeBadRequest, err)
			},
		},
	}
	mux := http.NewServeMux()
	// The whole public surface — the /v1 API, probes, /metrics and the
	// /debug endpoints, with role gating, body caps, and the derived
	// wrong-method fallbacks — mounts from the declarative route table
	// in routes.go.
	mountRoutes(mux, s, m, cfg.maxBodyBytes)
	// Catch-all: unknown paths answer the uniform envelope instead of
	// net/http's plain-text 404.
	mux.Handle("/", m.instrument("(unmatched)", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("no route for %s %s", r.Method, r.URL.Path))
	})))
	return mux
}

// limitBody caps the request body; reads past the cap fail with
// *http.MaxBytesError, which the decode helpers map to 413.
func limitBody(limit int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		h.ServeHTTP(w, r)
	})
}

type service struct {
	reg            *Registry
	logger         *slog.Logger
	batchWorkers   int
	batch          *batchMetrics
	tracer         *trace.Tracer
	online         *online.Manager
	cluster        *cluster.Coordinator  // nil unless coordinator mode (WithCluster)
	failed         func() error          // readiness seam; Handler wires reg.Failed
	metricsHandler http.Handler          // GET /metrics (this node's registry)
	fleet          *fleet.Collector      // nil unless fleet collection configured (WithFleet)
	admission      *admission.Controller // nil unless traffic protection configured (WithAdmission)

	role          Role
	follower      *replica.Follower // nil unless follower mode (WithFollower)
	leaderURL     string            // follower mode: where writes should go
	maxReplicaLag time.Duration     // follower mode: /readyz 503 threshold
	replication   http.Handler      // GET /v1/replicate (internal/replica)
}

// DefaultMaxReplicaLag is the follower staleness beyond which /readyz
// answers 503 replica_lagging (rrserve -max-replica-lag overrides).
const DefaultMaxReplicaLag = 30 * time.Second

// Stable machine-readable error codes carried by every v1 error
// envelope. Clients should branch on these, not on message text.
const (
	CodeNotFound         = "not_found"          // model (or route) does not exist
	CodeVersionNotFound  = "version_not_found"  // pinned version not retained
	CodeBadRequest       = "bad_request"        // malformed body, bad holes/width, invalid params
	CodeBodyTooLarge     = "body_too_large"     // request body exceeds the cap
	CodeStoreFailed      = "store_failed"       // durable store rejected the mutation
	CodeMethodNotAllowed = "method_not_allowed" // known path, wrong verb
	CodeConflict         = "conflict"           // request contradicts live stream state (decay mismatch)
	CodeClusterJoin      = "cluster_join"       // worker node failed its admission probe
	CodeReadOnly         = "read_only"          // mutation sent to a follower replica; write to the leader
	CodeReplicaLagging   = "replica_lagging"    // follower too far behind the leader (503 + Retry-After)
	CodeUnauthorized     = "unauthorized"       // missing/unknown bearer token (401 + WWW-Authenticate)
	CodeForbidden        = "forbidden"          // valid token, but the tenant is disabled
	CodeRateLimited      = "rate_limited"       // tenant token bucket empty (429 + Retry-After)
	CodeOverQuota        = "over_quota"         // tenant concurrency quota or ingest queue full (429 + Retry-After)
	CodeOverloaded       = "overloaded"         // global in-flight ceiling shed this request (503 + Retry-After)
	CodeInternal         = "internal"           // unexpected server-side failure
)

// errorInfo is the inner object of the uniform error envelope.
type errorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the uniform error envelope:
// {"error": {"code": "...", "message": "..."}}.
type errorBody struct {
	Error errorInfo `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: errorInfo{Code: code, Message: err.Error()}})
}

// bodyErr writes the envelope for a request-body read/decode failure,
// distinguishing oversized bodies (413) from malformed ones (400).
func bodyErr(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeErr(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
		return
	}
	writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("decoding request: %w", err))
}

// decodeBody decodes the JSON request body into v, answering 413/400
// itself on failure; callers bail out when it returns false.
func decodeBody(w http.ResponseWriter, req *http.Request, v any) bool {
	if err := json.NewDecoder(req.Body).Decode(v); err != nil {
		bodyErr(w, err)
		return false
	}
	return true
}

// errStatus maps library sentinel errors onto an HTTP status and
// envelope code.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrWidth), errors.Is(err, core.ErrBadHole), errors.Is(err, core.ErrNoRules),
		errors.Is(err, errBadRow):
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, store.ErrVersionNotFound):
		return http.StatusNotFound, CodeVersionNotFound
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, admission.ErrUnauthorized):
		return http.StatusUnauthorized, CodeUnauthorized
	case errors.Is(err, admission.ErrForbidden):
		return http.StatusForbidden, CodeForbidden
	case errors.Is(err, admission.ErrRateLimited):
		return http.StatusTooManyRequests, CodeRateLimited
	case errors.Is(err, admission.ErrOverQuota):
		return http.StatusTooManyRequests, CodeOverQuota
	case errors.Is(err, admission.ErrOverloaded):
		return http.StatusServiceUnavailable, CodeOverloaded
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// writeErrFor is writeErr with the status and code derived from the
// error's sentinel chain via errStatus.
func writeErrFor(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	writeErr(w, status, code, err)
}

// mineRequest is the POST /v1/rules body.
type mineRequest struct {
	Name   string      `json:"name"`
	Attrs  []string    `json:"attrs,omitempty"`
	Rows   [][]float64 `json:"rows"`
	Energy float64     `json:"energy,omitempty"` // 0 = default 0.85
	K      *int        `json:"k,omitempty"`      // fixed k override
}

// modelSummary is returned after mining and by GET /v1/rules.
type modelSummary struct {
	Name          string    `json:"name"`
	Version       int       `json:"version"`
	K             int       `json:"k"`
	M             int       `json:"m"`
	TrainedRows   int       `json:"trained_rows"`
	EnergyCovered float64   `json:"energy_covered"`
	Eigenvalues   []float64 `json:"eigenvalues"`
}

func summarize(name string, version int, r *core.Rules) modelSummary {
	return modelSummary{
		Name:          name,
		Version:       version,
		K:             r.K(),
		M:             r.M(),
		TrainedRows:   r.TrainedRows(),
		EnergyCovered: r.EnergyCovered(),
		Eigenvalues:   r.Eigenvalues(),
	}
}

func (s *service) mine(w http.ResponseWriter, req *http.Request) {
	var body mineRequest
	if !decodeBody(w, req, &body) {
		return
	}
	if body.Name == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("missing model name"))
		return
	}
	// With tenancy on, "/" is the namespace separator in store keys, so
	// client-chosen names must not contain it (a root-scope tenant could
	// otherwise mine straight into another tenant's namespace).
	if s.admission != nil && strings.Contains(body.Name, "/") {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("invalid model name %q: must not contain %q", body.Name, "/"))
		return
	}
	if len(body.Rows) == 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("missing rows"))
		return
	}
	x, err := matrix.FromRows(body.Rows)
	if err == nil {
		err = widthErr(x.Cols())
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	opts := []core.Option{}
	if body.Attrs != nil {
		opts = append(opts, core.WithAttrNames(body.Attrs))
	}
	if body.K != nil {
		opts = append(opts, core.WithFixedK(*body.K))
	} else if body.Energy > 0 {
		opts = append(opts, core.WithEnergy(body.Energy))
	}
	miner, err := core.NewMiner(opts...)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	rules, err := miner.MineMatrixContext(req.Context(), x)
	if err != nil {
		writeErrFor(w, err)
		return
	}
	key := tenantFrom(req).ScopedName(body.Name)
	version, err := s.reg.PutContext(req.Context(), key, rules)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, CodeStoreFailed,
			fmt.Errorf("persisting model: %w", err))
		return
	}
	s.logger.Info("model mined",
		"model", key, "version", version,
		"rows", rules.TrainedRows(), "k", rules.K(), "attrs", rules.M())
	writeJSON(w, http.StatusCreated, summarize(body.Name, version, rules))
}

func (s *service) list(w http.ResponseWriter, req *http.Request) {
	t := tenantFrom(req)
	names := s.reg.Names()
	out := make([]modelSummary, 0, len(names))
	for _, key := range names {
		name, visible := s.visibleName(t, key)
		if !visible {
			continue
		}
		if m, version, ok := s.reg.Get(key); ok {
			out = append(out, summarize(name, version, m))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// queryVersion parses the optional ?version=N pin; 0 (no pin) names
// the head. ok=false means the request was already answered with a
// 400.
func queryVersion(w http.ResponseWriter, req *http.Request) (version int, ok bool) {
	raw := req.URL.Query().Get("version")
	if raw == "" {
		return 0, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v <= 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("invalid version %q: want a positive integer", raw))
		return 0, false
	}
	return v, true
}

// resolve maps {name} and the ?version=N pin shared by the model GET,
// the health route and every inference endpoint to a retained revision:
// the head unless pinned. Missing models answer 404 not_found;
// unretained pins answer 404 version_not_found. The store key is the
// tenant-scoped name, so another tenant's models are indistinguishable
// from absent. ok=false means the request was already answered.
func (s *service) resolve(w http.ResponseWriter, req *http.Request) (key string, rev store.Revision, ok bool) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return key, rev, false
	}
	version, ok := queryVersion(w, req)
	if !ok {
		return key, rev, false
	}
	rev, err := s.reg.Revision(key, version)
	switch {
	case errors.Is(err, store.ErrVersionNotFound):
		writeErr(w, http.StatusNotFound, CodeVersionNotFound,
			fmt.Errorf("model %q has no retained version %d", name, version))
	case err != nil:
		writeErr(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("model %q not found", name))
	}
	return key, rev, err == nil
}

// lookup resolves the rule set an inference endpoint runs on, under a
// "store.get" span.
func (s *service) lookup(w http.ResponseWriter, req *http.Request) (*core.Rules, bool) {
	_, sp := trace.Start(req.Context(), "store.get")
	defer sp.End()
	key, rev, ok := s.resolve(w, req)
	sp.SetAttr("model", key)
	return rev.Rules, ok
}

// notModified sets the strong ETag of a served version ("v<N>") and,
// when If-None-Match matches it (the `*` wildcard and weak-validator
// prefixes included), answers 304 and reports true.
func notModified(w http.ResponseWriter, req *http.Request, version int) bool {
	etag := fmt.Sprintf(`"v%d"`, version)
	w.Header().Set("ETag", etag)
	for _, part := range strings.Split(req.Header.Get("If-None-Match"), ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		if part != "" && (part == "*" || part == etag) {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// get serves a revision's canonical Rules JSON — the head by default,
// or a retained revision pinned with ?version=N. The body is the
// pre-encoded canonical bytes held by the store, so encoding can never
// fail after headers are written. The ETag is the served version;
// If-None-Match answers 304 so pollers skip the download.
func (s *service) get(w http.ResponseWriter, req *http.Request) {
	_, rev, ok := s.resolve(w, req)
	if !ok || notModified(w, req, rev.Version) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(rev.Raw)
}

// put installs a model from Rules JSON (as produced by GET or rrmine
// -out), enabling offline mining with online serving.
func (s *service) put(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	if name == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("missing model name"))
		return
	}
	rules, err := core.Load(req.Body)
	if err != nil {
		bodyErr(w, err)
		return
	}
	version, err := s.reg.PutContext(req.Context(), key, rules)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, CodeStoreFailed,
			fmt.Errorf("persisting model: %w", err))
		return
	}
	s.logger.Info("model installed",
		"model", key, "version", version, "k", rules.K(), "attrs", rules.M())
	writeJSON(w, http.StatusOK, summarize(name, version, rules))
}

func (s *service) del(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	ok, err := s.reg.DeleteContext(req.Context(), key)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, CodeStoreFailed,
			fmt.Errorf("deleting model: %w", err))
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("model %q not found", name))
		return
	}
	// Deleting the model also drops its live stream: leaving the
	// accumulator running would republish the model right back. The
	// ingest admission queue goes with it.
	s.online.Drop(key)
	s.admission.DropIngestQueue(key)
	s.logger.Info("model deleted", "model", key)
	w.WriteHeader(http.StatusNoContent)
}

// versionsResponse is the GET /v1/rules/{name}/versions body.
type versionsResponse struct {
	Name     string              `json:"name"`
	Head     int                 `json:"head"`
	Versions []store.VersionInfo `json:"versions"`
}

func (s *service) versions(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	infos, ok := s.reg.Versions(key)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("model %q not found", name))
		return
	}
	head := 0
	if len(infos) > 0 {
		head = infos[len(infos)-1].Version
	}
	writeJSON(w, http.StatusOK, versionsResponse{Name: name, Head: head, Versions: infos})
}

// rollbackRequest is the POST /v1/rules/{name}/rollback body.
type rollbackRequest struct {
	Version int `json:"version"`
}

// rollback restores a retained version as the new head. The restored
// revision gets a fresh version number, so history stays linear and
// ETags keep advancing.
func (s *service) rollback(w http.ResponseWriter, req *http.Request) {
	name, key, ok := s.modelRef(w, req)
	if !ok {
		return
	}
	var body rollbackRequest
	if !decodeBody(w, req, &body) {
		return
	}
	if body.Version <= 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("missing or invalid version"))
		return
	}
	// The store returns the restored rules from under its lock, so the
	// summary always matches newVersion even when a concurrent Put lands
	// a newer head before we respond.
	rules, newVersion, err := s.reg.RollbackContext(req.Context(), key, body.Version)
	if err != nil {
		// Rollback failures that are neither missing-model nor
		// missing-version are journal write failures.
		status, code := errStatus(err)
		if code == CodeInternal {
			code = CodeStoreFailed
		}
		writeErr(w, status, code, err)
		return
	}
	s.logger.Info("model rolled back",
		"model", name, "restored", body.Version, "head", newVersion)
	writeJSON(w, http.StatusOK, summarize(name, newVersion, rules))
}

// fillRequest is the POST fill body: record values with the hole indices
// listed separately (JSON has no NaN).
type fillRequest struct {
	Record []float64 `json:"record"`
	Holes  []int     `json:"holes"`
}

type fillResponse struct {
	Filled []float64 `json:"filled"`
}

func (s *service) fill(w http.ResponseWriter, req *http.Request) {
	rules, ok := s.lookup(w, req)
	if !ok {
		return
	}
	var body fillRequest
	if !decodeBody(w, req, &body) {
		return
	}
	filled, err := rules.FillRow(body.Record, body.Holes)
	if err != nil {
		writeErrFor(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fillResponse{Filled: filled})
}

// forecastRequest is the POST forecast body.
type forecastRequest struct {
	Given  map[int]float64 `json:"given"`
	Target int             `json:"target"`
}

type forecastResponse struct {
	Value float64 `json:"value"`
}

func (s *service) forecast(w http.ResponseWriter, req *http.Request) {
	rules, ok := s.lookup(w, req)
	if !ok {
		return
	}
	var body forecastRequest
	if !decodeBody(w, req, &body) {
		return
	}
	v, err := rules.Forecast(body.Given, body.Target)
	if err != nil {
		writeErrFor(w, err)
		return
	}
	writeJSON(w, http.StatusOK, forecastResponse{Value: v})
}

// whatIfRequest is the POST whatif body: pinned attribute values.
type whatIfRequest struct {
	Given map[int]float64 `json:"given"`
}

type whatIfResponse struct {
	Record []float64 `json:"record"`
}

func (s *service) whatIf(w http.ResponseWriter, req *http.Request) {
	rules, ok := s.lookup(w, req)
	if !ok {
		return
	}
	var body whatIfRequest
	if !decodeBody(w, req, &body) {
		return
	}
	out, err := rules.WhatIf(core.Scenario{Given: body.Given})
	if err != nil {
		writeErrFor(w, err)
		return
	}
	writeJSON(w, http.StatusOK, whatIfResponse{Record: out})
}

// projectRequest is the POST project body.
type projectRequest struct {
	Rows [][]float64 `json:"rows"`
	Dims int         `json:"dims"`
}

type projectResponse struct {
	Coords [][]float64 `json:"coords"`
}

func (s *service) project(w http.ResponseWriter, req *http.Request) {
	rules, ok := s.lookup(w, req)
	if !ok {
		return
	}
	var body projectRequest
	if !decodeBody(w, req, &body) {
		return
	}
	x, err := matrix.FromRows(body.Rows)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	dims := body.Dims
	if dims == 0 {
		dims = 2
	}
	proj, err := rules.Project(x, dims)
	if err != nil {
		writeErrFor(w, err)
		return
	}
	coords := make([][]float64, proj.Rows())
	for i := range coords {
		coords[i] = proj.Row(i)
	}
	writeJSON(w, http.StatusOK, projectResponse{Coords: coords})
}

// outliersRequest is the POST outliers body.
type outliersRequest struct {
	Rows  [][]float64 `json:"rows"`
	Sigma float64     `json:"sigma,omitempty"`
}

type outliersResponse struct {
	Outliers []core.CellOutlier `json:"outliers"`
}

func (s *service) outliers(w http.ResponseWriter, req *http.Request) {
	rules, ok := s.lookup(w, req)
	if !ok {
		return
	}
	var body outliersRequest
	if !decodeBody(w, req, &body) {
		return
	}
	x, err := matrix.FromRows(body.Rows)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	out, err := rules.CellOutliers(x, body.Sigma)
	if err != nil {
		writeErrFor(w, err)
		return
	}
	if out == nil {
		out = []core.CellOutlier{}
	}
	writeJSON(w, http.StatusOK, outliersResponse{Outliers: out})
}
