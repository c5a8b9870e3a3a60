package server

// Debug and fleet surfaces: the trace flight recorder (/debug/traces)
// and the federated fleet views (/metrics/fleet, /debug/fleet). All of
// them mount from the route table (routes.go) untraced — scraping the
// scraper would flush real traffic out of the flight recorder. No
// profiling route lives here: pprof is served only by rrserve's
// -debug-addr side listener, off the public API address.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ratiorules/internal/obs"
	"ratiorules/internal/obs/fleet"
	"ratiorules/internal/obs/trace"
)

// tracesResponse is the GET /debug/traces body: flight-recorder
// occupancy plus the most recent (or slowest) trace summaries.
type tracesResponse struct {
	Retained int             `json:"retained"`
	Total    uint64          `json:"total"`
	Traces   []trace.Summary `json:"traces"`
}

// debugTraces lists the flight recorder: newest first by default,
// slowest first with ?sort=duration, capped with ?n=N (default 50).
func (s *service) debugTraces(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	n := 50
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("invalid n %q: want a positive integer", raw))
			return
		}
		n = v
	}
	var byDuration bool
	switch q.Get("sort") {
	case "", "recent":
	case "duration":
		byDuration = true
	default:
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("invalid sort %q: want recent or duration", q.Get("sort")))
		return
	}
	rec := s.tracer.Recorder()
	writeJSON(w, http.StatusOK, tracesResponse{
		Retained: rec.Len(),
		Total:    rec.Total(),
		Traces:   rec.Summaries(n, byDuration),
	})
}

// traceResponse is the GET /debug/traces/{id} body: the trace header,
// its span tree, and the trace's cross-node references — where the
// rest of a federated trace lives when this node only holds a part of
// it. Spans whose parent was dropped at the span cap (or ran on
// another node) surface as extra roots.
type traceResponse struct {
	TraceID    string            `json:"trace_id"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Spans      int               `json:"spans"`
	Dropped    int               `json:"dropped,omitempty"`
	Remote     []trace.RemoteRef `json:"remote,omitempty"`
	Tree       []*trace.SpanNode `json:"tree"`
}

// debugTrace serves one retained trace's full span tree, rebuilt from
// the flat span list by ParentID (trace.BuildTree — the same renderer
// worker nodes use, so every node in the fleet answers the same shape).
// Evicted or unknown IDs answer 404.
func (s *service) debugTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	td, ok := s.tracer.Recorder().Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("trace %q not retained (evicted or never recorded)", id))
		return
	}
	tree := trace.BuildTree(td.Spans)
	if tree == nil {
		tree = []*trace.SpanNode{}
	}
	writeJSON(w, http.StatusOK, traceResponse{
		TraceID:    td.TraceID,
		Name:       td.Name,
		Start:      td.Start,
		DurationMS: float64(td.Duration) / float64(time.Millisecond),
		Spans:      len(td.Spans),
		Dropped:    td.Dropped,
		Remote:     trace.RemoteRefs(td.Spans),
		Tree:       tree,
	})
}

// metricsExpo serves the node's own registry (GET /metrics).
func (s *service) metricsExpo(w http.ResponseWriter, req *http.Request) {
	s.metricsHandler.ServeHTTP(w, req)
}

// metricsFleet serves the federated exposition: every member's last
// scrape with node="..." injected, plus the synthetic per-node health
// series. Nodes without a collector answer 404 so scrapers can probe
// which node fronts the fleet.
func (s *service) metricsFleet(w http.ResponseWriter, _ *http.Request) {
	if s.fleet == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			errors.New("fleet collection not configured on this node"))
		return
	}
	// Render to a buffer first so a mid-exposition failure can still
	// answer a clean error instead of a torn body.
	var buf bytes.Buffer
	if err := s.fleet.WriteMetrics(&buf); err != nil {
		if errors.Is(err, fleet.ErrNoData) {
			writeErr(w, http.StatusNotFound, CodeNotFound, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = w.Write(buf.Bytes())
}

// fleetResponse is the GET /debug/fleet body: the collecting node's
// own identity plus one row per scraped member.
type fleetResponse struct {
	Self            fleetSelf          `json:"self"`
	IntervalSeconds float64            `json:"scrape_interval_seconds"`
	Nodes           []fleet.NodeStatus `json:"nodes"`
}

// fleetSelf identifies the node serving the rollup.
type fleetSelf struct {
	Role  string        `json:"role"`
	Build obs.BuildInfo `json:"build"`
}

// debugFleet serves the JSON fleet rollup: per-node role, health,
// staleness, build identity, probe body and (for workers) shard
// ownership.
func (s *service) debugFleet(w http.ResponseWriter, _ *http.Request) {
	if s.fleet == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			errors.New("fleet collection not configured on this node"))
		return
	}
	nodes := s.fleet.Nodes()
	if nodes == nil {
		nodes = []fleet.NodeStatus{}
	}
	writeJSON(w, http.StatusOK, fleetResponse{
		Self:            fleetSelf{Role: s.role.String(), Build: obs.Build()},
		IntervalSeconds: s.fleet.Interval().Seconds(),
		Nodes:           nodes,
	})
}
