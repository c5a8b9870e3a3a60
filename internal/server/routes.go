package server

// The declarative route table. Every route of the public surface —
// the /v1 API, the probes, /metrics and the /debug introspection
// endpoints — is one entry: method, path, which server roles serve it,
// whether it mutates state — and both the mux (Handler) and the
// contract tests walk the same table, so leader/follower/coordinator
// gating lives here and nowhere else. Wrong-method fallbacks (405 +
// Allow) are derived from the table too: the Allow header is exactly
// the methods mounted on a path (so POST /healthz is a 405 with
// Allow: GET, not a bare 404).

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Role says what this server instance is allowed to do. Handler derives
// it from the options: plain servers are leaders, WithCluster adds the
// coordinator role, WithFollower replaces both with the read-only
// follower role.
type Role uint8

const (
	// RoleLeader is a writable single node: every route except the
	// cluster admin surface.
	RoleLeader Role = 1 << iota
	// RoleFollower is a read-only replica tailing a leader: every GET
	// and inference route; mutations answer read_only.
	RoleFollower
	// RoleCoordinator fronts a sharded cluster; it is a leader that also
	// serves the /v1/cluster admin routes.
	RoleCoordinator
)

func (r Role) String() string {
	switch {
	case r&RoleFollower != 0:
		return "follower"
	case r&RoleCoordinator != 0:
		return "coordinator"
	default:
		return "leader"
	}
}

const (
	// rolesAll marks read routes: any role serves them.
	rolesAll = RoleLeader | RoleFollower | RoleCoordinator
	// rolesWriters marks mutating routes: writable roles serve them,
	// followers answer 403 read_only instead.
	rolesWriters = RoleLeader | RoleCoordinator
)

// route is one entry of the v1 surface.
type route struct {
	method string
	path   string
	roles  Role // roles that serve the handler
	// mutating routes change registry/stream state. On a follower they
	// stay mounted but answer read_only pointing at the leader (rather
	// than 404: the route exists, this instance just cannot serve it).
	mutating bool
	// stream routes read or write unbounded bodies row-by-row and are
	// exempt from the request-body cap.
	stream bool
	// untraced routes skip the flight recorder (long-lived replication
	// streams would pin open root spans for hours).
	untraced bool
	// protected routes go through admission control (tenant auth, rate
	// limits, quotas, load shedding) when WithAdmission is configured:
	// the whole /v1/rules surface. Replication and cluster-internal
	// routes are exempt — followers and workers hold no tenant tokens;
	// those surfaces are isolated at the network layer instead (see
	// docs/runbook.md) — as are the probes, /metrics and /debug.
	protected bool
	handler   func(*service, http.ResponseWriter, *http.Request)
}

// v1Routes is the whole versioned API surface. Inference POSTs (fill,
// forecast, whatif, project, outliers and their batch forms) are
// semantic reads — they touch no state — so followers serve them.
var v1Routes = []route{
	{method: "GET", path: "/v1/rules", roles: rolesAll, protected: true, handler: (*service).list},
	{method: "POST", path: "/v1/rules", roles: rolesWriters, mutating: true, protected: true, handler: (*service).mine},
	{method: "GET", path: "/v1/rules/{name}", roles: rolesAll, protected: true, handler: (*service).get},
	{method: "PUT", path: "/v1/rules/{name}", roles: rolesWriters, mutating: true, protected: true, handler: (*service).put},
	{method: "DELETE", path: "/v1/rules/{name}", roles: rolesWriters, mutating: true, protected: true, handler: (*service).del},
	{method: "GET", path: "/v1/rules/{name}/versions", roles: rolesAll, protected: true, handler: (*service).versions},
	{method: "POST", path: "/v1/rules/{name}/rollback", roles: rolesWriters, mutating: true, protected: true, handler: (*service).rollback},
	{method: "POST", path: "/v1/rules/{name}/fill", roles: rolesAll, protected: true, handler: (*service).fill},
	{method: "POST", path: "/v1/rules/{name}/forecast", roles: rolesAll, protected: true, handler: (*service).forecast},
	{method: "POST", path: "/v1/rules/{name}/whatif", roles: rolesAll, protected: true, handler: (*service).whatIf},
	{method: "POST", path: "/v1/rules/{name}/project", roles: rolesAll, protected: true, handler: (*service).project},
	{method: "POST", path: "/v1/rules/{name}/outliers", roles: rolesAll, protected: true, handler: (*service).outliers},
	{method: "POST", path: "/v1/rules/{name}/batch/fill", roles: rolesAll, stream: true, protected: true, handler: (*service).batchFill},
	{method: "POST", path: "/v1/rules/{name}/batch/forecast", roles: rolesAll, stream: true, protected: true, handler: (*service).batchForecast},
	{method: "POST", path: "/v1/rules/{name}/batch/outliers", roles: rolesAll, stream: true, protected: true, handler: (*service).batchOutliers},
	{method: "POST", path: "/v1/rules/{name}/ingest", roles: rolesWriters, mutating: true, stream: true, protected: true, handler: (*service).ingest},
	{method: "GET", path: "/v1/rules/{name}/stream", roles: rolesAll, protected: true, handler: (*service).streamStatus},
	{method: "DELETE", path: "/v1/rules/{name}/stream", roles: rolesWriters, mutating: true, protected: true, handler: (*service).streamDrop},
	{method: "GET", path: "/v1/rules/{name}/health", roles: rolesAll, protected: true, handler: (*service).modelHealth},
	// Replication is served by every role — a follower can feed further
	// followers (cascading fan-out) because its store keeps its own
	// replication log under the leader's seqs.
	{method: "GET", path: "/v1/replicate", roles: rolesAll, stream: true, untraced: true, handler: (*service).replicate},
	// Cluster admin exists only on coordinators; on every other role the
	// paths fall through to the uniform 404.
	{method: "GET", path: "/v1/cluster/status", roles: RoleCoordinator, handler: (*service).clusterStatus},
	{method: "POST", path: "/v1/cluster/join", roles: RoleCoordinator, handler: (*service).clusterJoin},
	{method: "POST", path: "/v1/cluster/republish/{name}", roles: RoleCoordinator, handler: (*service).clusterRepublish},
	// Probes, metrics and the /debug introspection surface. All untraced:
	// scrapers hit them every few seconds and would flush real traffic
	// out of the flight recorder (and tracing the trace dump would be
	// silly). Every role serves them; the fleet pair answers 404
	// not_found on nodes without a collector.
	{method: "GET", path: "/healthz", roles: rolesAll, untraced: true, handler: (*service).health},
	{method: "GET", path: "/readyz", roles: rolesAll, untraced: true, handler: (*service).readyz},
	{method: "GET", path: "/metrics", roles: rolesAll, untraced: true, handler: (*service).metricsExpo},
	{method: "GET", path: "/metrics/fleet", roles: rolesAll, untraced: true, handler: (*service).metricsFleet},
	{method: "GET", path: "/debug/traces", roles: rolesAll, untraced: true, handler: (*service).debugTraces},
	{method: "GET", path: "/debug/traces/{id}", roles: rolesAll, untraced: true, handler: (*service).debugTrace},
	{method: "GET", path: "/debug/alerts", roles: rolesAll, untraced: true, handler: (*service).debugAlerts},
	{method: "GET", path: "/debug/admission", roles: rolesAll, untraced: true, handler: (*service).debugAdmission},
	{method: "GET", path: "/debug/fleet", roles: rolesAll, untraced: true, handler: (*service).debugFleet},
}

// mounted reports whether a role mounts this route at all: either
// serving it, or (follower × mutating) answering read_only.
func (rt route) mounted(role Role) bool {
	return role&rt.roles != 0 || (rt.mutating && role&RoleFollower != 0)
}

// allowOrder is the canonical Allow-header method order.
var allowOrder = map[string]int{
	http.MethodGet: 0, http.MethodHead: 1, http.MethodPost: 2,
	http.MethodPut: 3, http.MethodPatch: 4, http.MethodDelete: 5,
}

// allowHeaders derives the per-path Allow strings for every path with
// at least one mounted route under the given role.
func allowHeaders(role Role) map[string]string {
	methods := make(map[string][]string)
	for _, rt := range v1Routes {
		if rt.mounted(role) {
			methods[rt.path] = append(methods[rt.path], rt.method)
		}
	}
	out := make(map[string]string, len(methods))
	for path, ms := range methods {
		sort.Slice(ms, func(i, j int) bool { return allowOrder[ms[i]] < allowOrder[ms[j]] })
		out[path] = strings.Join(ms, ", ")
	}
	return out
}

// readOnly answers a mutating route on a follower: 403 with the stable
// read_only code and the leader to write to instead.
func (s *service) readOnly(w http.ResponseWriter, _ *http.Request) {
	writeErr(w, http.StatusForbidden, CodeReadOnly,
		fmt.Errorf("this replica is read-only; send writes to the leader at %s", s.leaderURL))
}

// replicate serves the leader side of WAL shipping (GET /v1/replicate).
// The real handler lives in internal/replica; Handler wires it with the
// registry's store and the envelope error writer.
func (s *service) replicate(w http.ResponseWriter, req *http.Request) {
	s.replication.ServeHTTP(w, req)
}

// mountRoutes walks the table and registers every route for the
// service's role, plus the derived wrong-method fallbacks.
func mountRoutes(mux *http.ServeMux, s *service, m *httpMetrics, maxBodyBytes int64) {
	for _, rt := range v1Routes {
		if !rt.mounted(s.role) {
			continue
		}
		handler := rt.handler
		if s.role&rt.roles == 0 {
			handler = (*service).readOnly
		}
		var wrapped http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { handler(s, w, r) })
		// Admission wraps inside the body cap and the instrumentation:
		// 401/429 rejections are counted, logged and traced like any
		// other response, and never read the request body at all.
		if rt.protected {
			wrapped = s.admitted(rt.stream, wrapped)
		}
		if !rt.stream && maxBodyBytes > 0 {
			wrapped = limitBody(maxBodyBytes, wrapped)
		}
		if rt.untraced {
			wrapped = m.instrument(rt.path, wrapped)
		} else {
			wrapped = m.instrumentTraced(rt.path, wrapped)
		}
		mux.Handle(rt.method+" "+rt.path, wrapped)
	}
	for path, allow := range allowHeaders(s.role) {
		mux.Handle(path, m.instrument(path, methodNotAllowed(allow)))
	}
}
