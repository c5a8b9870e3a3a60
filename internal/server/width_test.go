package server

// The width bound: a row wider than maxRowWidth is refused before any
// accumulator is sized from it — on mine, on single-node ingest and on
// a coordinator's ingest, whose workers never see the row.

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"ratiorules/internal/obs/obstest"
	"ratiorules/internal/online"
)

// wideRow is a JSON array of maxRowWidth+1 zeros, one past the bound.
func wideRow() string {
	return "[" + strings.TrimSuffix(strings.Repeat("0,", maxRowWidth+1), ",") + "]"
}

// wideRowBudget bounds what the server may allocate for a request
// carrying one wideRow: far below the 134 MB of M×M sums the row would
// size.
const wideRowBudget = 16 << 20

func TestMineRejectsRowPastWidthBound(t *testing.T) {
	ts := newTestServer(t)
	var status int
	var code string
	n := obstest.AllocBytes(func() {
		resp := doRaw(t, "POST", ts.URL+"/v1/rules", "", `{"name":"wide","rows":[`+wideRow()+`]}`)
		defer resp.Body.Close()
		status, code = resp.StatusCode, decodeEnvelope(t, "wide mine", resp.Body)
	})
	if status != http.StatusBadRequest || code != CodeBadRequest {
		t.Fatalf("wide mine: status %d code %q, want 400 %s", status, code, CodeBadRequest)
	}
	if n > wideRowBudget {
		t.Fatalf("wide mine allocated %d bytes, want at most %d", n, wideRowBudget)
	}
}

func TestIngestRejectsRowPastWidthBound(t *testing.T) {
	ts := onlineTestServer(t, online.Config{Seed: 1})
	var lines []ingestLine
	var done ingestLine
	n := obstest.AllocBytes(func() {
		resp := doRaw(t, "POST", ts.URL+"/v1/rules/wide/ingest", ndjsonContentType, wideRow()+"\n")
		lines, done = readIngestLines(t, resp)
	})
	if len(lines) != 1 || lines[0].Error == nil || lines[0].Error.Code != CodeBadRequest {
		t.Fatalf("wide ingest lines = %+v, want one bad_request error", lines)
	}
	if d := done.Done; d.Rows != 1 || d.Accepted != 0 || d.Errors != 1 {
		t.Fatalf("wide ingest done = %+v", *d)
	}
	if n > wideRowBudget {
		t.Fatalf("wide ingest allocated %d bytes, want at most %d", n, wideRowBudget)
	}
	var st online.StreamStatus
	if status := doJSON(t, "GET", ts.URL+"/v1/rules/wide/stream", nil, &st); status != http.StatusOK {
		t.Fatalf("stream status = %d", status)
	}
	if st.Width != 0 || st.Rows != 0 {
		t.Fatalf("stream after the refused row: width %d rows %d, want no accumulator", st.Width, st.Rows)
	}
	// The refused row fixed nothing: the stream's first good row sets
	// its width.
	lines, done = readIngestLines(t, doRaw(t, "POST", ts.URL+"/v1/rules/wide/ingest", ndjsonContentType, "[1,2]\n[2,4]\n"))
	if len(lines) != 2 || done.Done.Accepted != 2 {
		t.Fatalf("narrow rows after the refused one: %+v, done %+v", lines, *done.Done)
	}
}

// TestClusterIngestRejectsRowPastWidthBound: on a coordinator the wide
// row answers its own error line and never reaches a worker, so every
// member stays healthy and untainted and the cluster keeps folding.
func TestClusterIngestRejectsRowPastWidthBound(t *testing.T) {
	cs := newClusterTestServer(t, 3)
	lines, done := readIngestLines(t, doRaw(t, "POST", cs.ts.URL+"/v1/rules/wide/ingest", ndjsonContentType, wideRow()+"\n"))
	if len(lines) != 1 || lines[0].Error == nil || lines[0].Error.Code != CodeBadRequest {
		t.Fatalf("wide ingest lines = %+v, want one bad_request error", lines)
	}
	if d := done.Done; d.Rows != 1 || d.Accepted != 0 || d.Errors != 1 {
		t.Fatalf("wide ingest done = %+v", *d)
	}
	st := cs.coord.Status()
	if st.Healthy != 3 || st.Degraded {
		t.Fatalf("cluster after the wide row: %+v", st)
	}
	for _, m := range st.Members {
		if !m.Healthy || m.Tainted {
			t.Fatalf("member %s after the wide row: %+v", m.URL, m)
		}
	}

	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "[%d,%d]\n", i, 2*i+1)
	}
	if _, done := readIngestLines(t, doRaw(t, "POST", cs.ts.URL+"/v1/rules/m/ingest", ndjsonContentType, b.String())); done.Done.Accepted != 200 {
		t.Fatalf("narrow ingest done = %+v", *done.Done)
	}
	var sum modelSummary
	if status := doJSON(t, "POST", cs.ts.URL+"/v1/cluster/republish/m", nil, &sum); status != http.StatusOK || sum.TrainedRows != 200 {
		t.Fatalf("republish: status %d, summary %+v; want 200 trained rows", status, sum)
	}
}
