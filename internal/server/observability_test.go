package server

// Integration coverage for the fleet surface when it IS configured
// (the contract test pins the unconfigured 404s).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ratiorules/internal/obs"
	"ratiorules/internal/obs/fleet"
)

func TestFleetRoutesConfigured(t *testing.T) {
	// One fake member with metrics and a readiness probe.
	memberMux := http.NewServeMux()
	memberMux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "# HELP rr_models Registered models.\n# TYPE rr_models gauge\nrr_models 5\n")
	})
	memberMux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	member := httptest.NewServer(memberMux)
	t.Cleanup(member.Close)

	collector := fleet.New(fleet.Config{
		Members:  []fleet.Member{{Name: "w1", URL: member.URL}},
		Interval: time.Hour,
		Logger:   obs.NopLogger(),
		SelfName: "self",
		SelfRole: "leader",
	})
	collector.ScrapeOnce(context.Background())

	ts := httptest.NewServer(Handler(NewRegistry(), WithFleet(collector)))
	t.Cleanup(ts.Close)

	resp := doRaw(t, "GET", ts.URL+"/metrics/fleet", "", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/fleet status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("/metrics/fleet Content-Type %q, want %q", ct, obs.ContentType)
	}
	for _, want := range []string{`rr_models{node="w1"} 5`, `rr_fleet_member_up{node="w1"} 1`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics/fleet missing %q:\n%s", want, body)
		}
	}

	resp = doRaw(t, "GET", ts.URL+"/debug/fleet", "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/fleet status %d", resp.StatusCode)
	}
	var rollup struct {
		Self struct {
			Role  string        `json:"role"`
			Build obs.BuildInfo `json:"build"`
		} `json:"self"`
		IntervalSeconds float64 `json:"scrape_interval_seconds"`
		Nodes           []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
			Stale   bool   `json:"stale"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rollup); err != nil {
		t.Fatal(err)
	}
	if rollup.Self.Role != "leader" || rollup.Self.Build.GoVersion == "" {
		t.Errorf("/debug/fleet self = %+v, want role leader with build info", rollup.Self)
	}
	if rollup.IntervalSeconds != 3600 {
		t.Errorf("/debug/fleet interval = %v, want 3600", rollup.IntervalSeconds)
	}
	if len(rollup.Nodes) != 1 || rollup.Nodes[0].Name != "w1" || !rollup.Nodes[0].Healthy {
		t.Errorf("/debug/fleet nodes = %+v, want healthy w1", rollup.Nodes)
	}
}

// TestMetricsServesBuildInfo: every node exposes rr_build_info so the
// fleet collector can report mixed-version fleets.
func TestMetricsServesBuildInfo(t *testing.T) {
	ts := newTestServer(t)
	resp := doRaw(t, "GET", ts.URL+"/metrics", "", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "rr_build_info{") {
		t.Errorf("/metrics missing rr_build_info:\n%.2000s", body)
	}
}
