package server

// Cluster admin routes, mounted only when Handler runs in coordinator
// mode (WithCluster):
//
//	GET  /v1/cluster/status            membership, health, degradation
//	POST /v1/cluster/join              add (or re-probe) a worker node
//	POST /v1/cluster/republish/{name}  force one pull-merge-republish cycle
//
// Workers announce themselves with POST join on startup (rrserve -node
// -coordinator=URL); operators use the same route to re-admit a node
// after restart. Force republish is the deterministic merge trigger:
// e2e tests and operators use it instead of waiting for the row-count
// or interval triggers.

import (
	"errors"
	"fmt"
	"net/http"

	"ratiorules/internal/cluster"
	"ratiorules/internal/online"
)

// clusterJoinRequest is the POST /v1/cluster/join body.
type clusterJoinRequest struct {
	URL string `json:"url"`
}

// clusterJoin admits a worker node into the coordinator's membership.
// The coordinator probes it synchronously; an unreachable or tainted
// node answers 502 with the probe failure, so announcing workers know
// immediately whether they made it in.
func (s *service) clusterJoin(w http.ResponseWriter, req *http.Request) {
	var body clusterJoinRequest
	if !decodeBody(w, req, &body) {
		return
	}
	if body.URL == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("missing worker url"))
		return
	}
	if err := s.cluster.Join(body.URL); err != nil {
		writeErr(w, http.StatusBadGateway, CodeClusterJoin,
			fmt.Errorf("joining worker %s: %w", body.URL, err))
		return
	}
	s.logger.Info("cluster worker joined", "worker", body.URL)
	writeJSON(w, http.StatusOK, s.cluster.Status())
}

// clusterStatus reports membership and degradation (GET /v1/cluster/status).
func (s *service) clusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.Status())
}

// clusterRepublish forces one synchronous pull-merge-republish cycle
// for a model (POST /v1/cluster/republish/{name}), answering the
// published model summary. A merge that found no shard rows anywhere
// answers 404.
func (s *service) clusterRepublish(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	if err := s.cluster.MergeNow(req.Context(), name); err != nil {
		if online.IsTooFewRows(err) || errors.Is(err, cluster.ErrUnknownModel) {
			writeErr(w, http.StatusNotFound, CodeNotFound,
				fmt.Errorf("model %q has no cluster shard rows: %w", name, err))
			return
		}
		writeErr(w, http.StatusInternalServerError, CodeInternal,
			fmt.Errorf("merging shards for %q: %w", name, err))
		return
	}
	rules, version, ok := s.reg.Get(name)
	if !ok {
		// Merge succeeded but the GE gate held the publish back; report
		// the gate decision rather than inventing a version.
		writeErr(w, http.StatusConflict, CodeConflict,
			fmt.Errorf("model %q merged but was not promoted (GE gate)", name))
		return
	}
	s.logger.Info("cluster republish forced", "model", name, "version", version)
	writeJSON(w, http.StatusOK, summarize(name, version, rules))
}
