package server

// Row-path benchmarks: NDJSON ingest and the three batch routes over
// httptest loopback at M=100 (Quest rows), 256- and 1,000-row bodies.
// Each reports µs/row (wall time per row) and allocs/row (every
// allocation in the process, client included, per row). The
// unknown_key variants add one key the row codec does not know to every
// row, so each line takes the encoding/json fallback: they price a
// declined line.
//
//	go test -run '^$' -bench 'NDJSON' -benchtime 200x ./internal/server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/online"
	"ratiorules/internal/quest"
)

// benchBodySizes are the rows per request body.
var benchBodySizes = []int{256, 1000}

// questRows draws n rows of the paper's scale-up data (M=100).
func questRows(b *testing.B, n int) [][]float64 {
	b.Helper()
	src, err := quest.NewSource(quest.DefaultConfig(n))
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]float64, n)
	for i := range rows {
		if rows[i], err = src.Next(); err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

// appendJSONRow appends row as a JSON array at round-trip precision.
func appendJSONRow(b []byte, row []float64) []byte {
	b = append(b, '[')
	for j, v := range row {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// postRows sends body b.N times and checks each response has want lines
// and no error line; it reports µs/row and allocs/row.
func postRows(b *testing.B, url string, body []byte, rows, want int) {
	b.Helper()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, ndjsonContentType, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if n := bytes.Count(out, []byte("\n")); n != want || bytes.Contains(out, []byte(`"error"`)) {
			b.Fatalf("response of %d lines (want %d) or with an error line:\n%.300s", n, want, out)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*rows), "us/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*rows), "allocs/row")
}

func BenchmarkIngestNDJSON(b *testing.B) {
	rows := questRows(b, benchBodySizes[len(benchBodySizes)-1])
	for _, n := range benchBodySizes {
		for _, unknown := range []bool{false, true} {
			var body []byte
			for _, row := range rows[:n] {
				if unknown {
					body = append(body, `{"row":`...)
					body = append(appendJSONRow(body, row), `,"source":"bench"}`...)
				} else {
					body = appendJSONRow(body, row)
				}
				body = append(body, '\n')
			}
			b.Run(benchName(n, unknown), func(b *testing.B) {
				reg, metrics := NewRegistry(), obs.NewRegistry()
				mgr, err := online.NewManager(reg, online.Config{RepublishRows: 1 << 40, Metrics: metrics})
				if err != nil {
					b.Fatal(err)
				}
				defer mgr.Close()
				ts := httptest.NewServer(Handler(reg, WithOnline(mgr), WithObs(metrics)))
				defer ts.Close()
				postRows(b, ts.URL+"/v1/rules/bench/ingest", body, n, n+1)
			})
		}
	}
}

// batchBench mines rules from 4,096 Quest rows and returns them with
// the next 1,000 rows, which the batch benchmarks send.
func batchBench(b *testing.B) (*core.Rules, [][]float64) {
	b.Helper()
	const train = 4096
	rows := questRows(b, train+benchBodySizes[len(benchBodySizes)-1])
	x, err := matrix.FromRows(rows[:train])
	if err != nil {
		b.Fatal(err)
	}
	miner, err := core.NewMiner()
	if err != nil {
		b.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		b.Fatal(err)
	}
	return rules, rows[train:]
}

// postBatch serves rules as "bench" and posts body to its batch route.
func postBatch(b *testing.B, rules *core.Rules, route string, body []byte, rows int) {
	b.Helper()
	reg := NewRegistry()
	if _, err := reg.Put(context.Background(), "bench", rules); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(Handler(reg, WithObs(obs.NewRegistry())))
	defer ts.Close()
	postRows(b, ts.URL+"/v1/rules/bench/batch/"+route, body, rows, rows)
}

func BenchmarkBatchFillNDJSON(b *testing.B) {
	rules, rows := batchBench(b)
	rng := rand.New(rand.NewSource(1))
	for _, n := range benchBodySizes {
		for _, unknown := range []bool{false, true} {
			var body []byte
			for _, row := range rows[:n] {
				rec := append([]float64(nil), row...)
				holes := rng.Perm(len(rec))[:3]
				for _, h := range holes {
					rec[h] = 0
				}
				body = appendJSONRow(append(body, `{"record":`...), rec)
				body = append(body, `,"holes":[`...)
				for i, h := range holes {
					if i > 0 {
						body = append(body, ',')
					}
					body = strconv.AppendInt(body, int64(h), 10)
				}
				body = append(body, ']')
				if unknown {
					body = append(body, `,"source":"bench"`...)
				}
				body = append(body, "}\n"...)
			}
			b.Run(benchName(n, unknown), func(b *testing.B) {
				postBatch(b, rules, "fill", body, n)
			})
		}
	}
}

// BenchmarkBatchForecastNDJSON sends rows that give every attribute but
// three and ask for one of those three. Neither side of a forecast row
// is a row codec shape: the given map is decoded and the result line
// encoded by encoding/json, so only the framer and the burst writer
// apply.
func BenchmarkBatchForecastNDJSON(b *testing.B) {
	rules, rows := batchBench(b)
	rng := rand.New(rand.NewSource(1))
	for _, n := range benchBodySizes {
		var body []byte
		for _, row := range rows[:n] {
			perm := rng.Perm(len(row))
			body = append(body, `{"given":{`...)
			for _, j := range perm[3:] {
				if body[len(body)-1] != '{' {
					body = append(body, ',')
				}
				body = strconv.AppendQuote(body, strconv.Itoa(j))
				body = strconv.AppendFloat(append(body, ':'), row[j], 'g', -1, 64)
			}
			body = append(body, `},"target":`...)
			body = strconv.AppendInt(body, int64(perm[0]), 10)
			body = append(body, "}\n"...)
		}
		b.Run(benchName(n, false), func(b *testing.B) {
			postBatch(b, rules, "forecast", body, n)
		})
	}
}

// BenchmarkBatchOutliersNDJSON sends {"record":[…]} rows, which the row
// codec decodes; the result lines go through encoding/json.
func BenchmarkBatchOutliersNDJSON(b *testing.B) {
	rules, rows := batchBench(b)
	for _, n := range benchBodySizes {
		var body []byte
		for _, row := range rows[:n] {
			body = appendJSONRow(append(body, `{"record":`...), row)
			body = append(body, "}\n"...)
		}
		b.Run(benchName(n, false), func(b *testing.B) {
			postBatch(b, rules, "outliers", body, n)
		})
	}
}

func benchName(rows int, unknown bool) string {
	if unknown {
		return fmt.Sprintf("rows=%d/unknown_key", rows)
	}
	return fmt.Sprintf("rows=%d", rows)
}
