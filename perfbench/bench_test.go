package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the code must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestNamesStable pins every workload, metric name and unit the code
// prints against BENCHMARK.json, in order.
func TestNamesStable(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	// mine and ingest stay runnable but out of BENCHMARK.json (README.md).
	want := []string{"republish", "serve"}
	if len(bf.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bf.Workloads), len(want))
	}
	for i, w := range bf.Workloads {
		if w.Name != want[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, want %q", i, w.Name, want[i])
		}
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("workload %q has no spec", w.Name)
		}
	}
	pin := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: code %s [%s], BENCHMARK.json %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	pin("end_to_end", endToEnd, bf.EndToEnd)
	pin("per_layer", perLayer, bf.PerLayer)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" {
		t.Errorf("first end-to-end metric is %v, want setup_s [s]", endToEnd[0])
	}
}

func tinySizes() sizes {
	return sizes{
		setupReps:       1,
		mineRows:        2000,
		ingestWidth:     32,
		ingestReqRows:   256,
		ingestBodies:    2,
		ingestRepublish: 1024,
		cycleRows:       64,
		serveTrain:      2000,
		serveFills:      64,
		servePatterns:   64,
		batchRows:       100,
		batchBodies:     2,
		fillRate:        200,
		replayRounds:    1,
	}
}

// TestSmoke runs every workload at a tiny size, untraced on one seed and
// traced on another, and asserts that every metric is present, finite
// where it must be, and that every check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs servers and workloads")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			seed := int64(1)
			if traced {
				seed = 2
			}
			rep, err := runWorkload(context.Background(), specs[name], tinySizes(), seed, 600*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			got := make(map[string]value)
			for _, v := range rep.metrics {
				got[v.name] = v
			}
			for _, m := range want {
				v, ok := got[m.Name]
				if !ok || v.unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or wrong unit (%+v)", name, traced, m.Name, v)
				}
				if !traced && v.v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v.v)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.metrics), len(want))
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", name, traced, rep.attempted, rep.failed)
			}
			for _, c := range rep.checks {
				if !c.ok {
					t.Errorf("%s traced=%v: check %s failed: %s", name, traced, c.name, c.info)
				}
			}
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of
// its children's intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := r.selfTimes()
	for id, want := range map[int]time.Duration{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("span %d self %v, want %v", id, self[id], want)
		}
	}
}
