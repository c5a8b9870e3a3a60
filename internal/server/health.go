package server

// Probes and model-quality surfacing. Liveness (/healthz) answers "is
// the process up"; readiness (/readyz) answers "should traffic come
// here", keying off the store wedge state and the alert engine; and
// GET /v1/rules/{name}/health exposes the online monitor's per-model
// quality picture (current/baseline GE, trend, firing alerts) with the
// same ?version= and ETag semantics as the model GET. GET /debug/alerts
// dumps every alert rule and state, shaped like /debug/traces.

import (
	"fmt"
	"net/http"

	"ratiorules/internal/admission"
	"ratiorules/internal/obs/alert"
	"ratiorules/internal/online"
	"ratiorules/internal/replica"
)

// The online manager's optional store capabilities must keep being
// satisfied by the registry: auto-rollback and version GE annotations
// silently disable otherwise.
var (
	_ online.RollbackStore = (*Registry)(nil)
	_ online.GEAnnotator   = (*Registry)(nil)
)

// healthz answers liveness probes: the process is up and serving. No
// dependency state — a wedged store or a firing alert must not make an
// orchestrator restart the process (that is readyz's distinction).
func (s *service) health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// readyzResponse is the GET /readyz success body.
type readyzResponse struct {
	Status       string            `json:"status"` // "ready" | "degraded"
	Role         string            `json:"role"`   // "leader" | "follower" | "coordinator"
	Models       int               `json:"models"`
	FiringAlerts int               `json:"firing_alerts"`
	Cluster      *readyzCluster    `json:"cluster,omitempty"`   // coordinator mode only
	Replica      *replica.Status   `json:"replica,omitempty"`   // follower mode only
	Admission    *admission.Health `json:"admission,omitempty"` // WithAdmission only
}

// readyzCluster summarizes cluster health in the readiness body.
type readyzCluster struct {
	Members  int  `json:"members"`
	Healthy  int  `json:"healthy"`
	Degraded bool `json:"degraded"` // last merge fell back to retained shards
}

// readyz answers readiness probes. A wedged store (mutations failing
// with store.ErrFailed) answers 503 with the v1 error envelope so load
// balancers drain the instance; firing quality alerts mark the body
// "degraded" but keep the instance routable — the served models still
// answer queries, they are just suspected stale. In coordinator mode a
// degraded cluster (dead workers, merges running on retained shard
// snapshots) likewise marks the body degraded without failing the
// probe: serving and single-path ingest still work. In follower mode
// the replica's lag decides: staleness beyond -max-replica-lag answers
// 503 replica_lagging with a Retry-After so load balancers drain the
// replica until it catches up; behind-but-within-bound reports
// "degraded" and keeps serving (reads are consistent, just stale).
func (s *service) readyz(w http.ResponseWriter, _ *http.Request) {
	if err := s.failed(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, CodeStoreFailed,
			fmt.Errorf("store wedged: %w", err))
		return
	}
	if s.follower != nil {
		rs := s.follower.Status()
		if rs.LagSeconds > s.maxReplicaLag.Seconds() {
			w.Header().Set("Retry-After", replicaRetryAfter)
			writeErr(w, http.StatusServiceUnavailable, CodeReplicaLagging,
				fmt.Errorf("replica %.1fs behind leader %s (max %s): applied seq %d, leader seq %d",
					rs.LagSeconds, rs.Leader, s.maxReplicaLag, rs.AppliedSeq, rs.LeaderSeq))
			return
		}
	}
	_, firing := s.online.Alerts()
	status := "ready"
	if firing > 0 {
		status = "degraded"
	}
	resp := readyzResponse{
		Role:         s.role.String(),
		Models:       len(s.reg.Names()),
		FiringAlerts: firing,
	}
	if s.cluster != nil {
		cs := s.cluster.Status()
		resp.Cluster = &readyzCluster{
			Members:  len(cs.Members),
			Healthy:  cs.Healthy,
			Degraded: cs.Degraded,
		}
		if cs.Degraded || cs.Healthy < len(cs.Members) {
			status = "degraded"
		}
	}
	if s.follower != nil {
		rs := s.follower.Status()
		resp.Replica = &rs
		if !rs.Synced {
			status = "degraded"
		}
	}
	if s.admission != nil {
		ah := s.admission.Health()
		resp.Admission = &ah
		// A failing tenant-file reload serves the last-good registry:
		// degraded, not unready (see admission.Health).
		if ah.ReloadError != "" {
			status = "degraded"
		}
	}
	resp.Status = status
	writeJSON(w, http.StatusOK, resp)
}

// replicaRetryAfter is the Retry-After (seconds) on 503 replica_lagging
// responses: long enough for a reconnect + catch-up round, short enough
// that a recovered replica takes traffic again promptly.
const replicaRetryAfter = "5"

// modelHealthResponse is the GET /v1/rules/{name}/health body: the
// online monitor's quality summary plus the pinned version's stored GE
// annotation. Models without a live stream report monitor zero values
// (no samples, no alerts) — the model still serves, it just is not
// being measured.
type modelHealthResponse struct {
	online.ModelHealth
	// Version is the revision this response is pinned to (the head
	// unless ?version=N), matching the ETag.
	Version int `json:"version"`
	// VersionGE is the store's GE annotation for that revision, when
	// the monitor recorded one.
	VersionGE *float64 `json:"version_ge,omitempty"`
}

// modelHealth serves a model's quality picture. Version pinning and
// ETag/If-None-Match behave exactly like the model GET: the ETag is
// the pinned (or head) version, so health pollers can skip the body
// while the served revision is unchanged.
func (s *service) modelHealth(w http.ResponseWriter, req *http.Request) {
	key, rev, ok := s.resolve(w, req)
	if !ok || notModified(w, req, rev.Version) {
		return
	}
	h, live := s.online.Health(key)
	if !live {
		h = online.ModelHealth{Status: "ok"}
	}
	// The response names the model as the tenant addressed it, not by
	// its internal scoped key.
	h.Name = req.PathValue("name")
	_, h.ServingVersion, _ = s.reg.Get(key)
	if h.Alerts == nil {
		h.Alerts = []alert.Status{}
	}
	writeJSON(w, http.StatusOK, modelHealthResponse{ModelHealth: h, Version: rev.Version, VersionGE: rev.GE})
}

// alertsResponse is the GET /debug/alerts body: the configured rules
// and every evaluated (rule, target) state, same shape idiom as
// /debug/traces (occupancy header + entries).
type alertsResponse struct {
	Firing int            `json:"firing"`
	Rules  []alert.Rule   `json:"rules"`
	States []alert.Status `json:"states"`
}

// debugAlerts dumps the alert engine: every configured rule and the
// state of every (rule, target) pair that has been evaluated.
func (s *service) debugAlerts(w http.ResponseWriter, _ *http.Request) {
	states, firing := s.online.Alerts()
	rules := s.online.AlertRules()
	if states == nil {
		states = []alert.Status{}
	}
	if rules == nil {
		rules = []alert.Rule{}
	}
	writeJSON(w, http.StatusOK, alertsResponse{Firing: firing, Rules: rules, States: states})
}
