package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"ratiorules/internal/core"
)

// serveFixture: a model mined at set-up is installed on the leader. One
// connection sends single fills open loop at a fixed rate; the other
// sends 1,000-row batch fills closed loop.
type serveFixture struct {
	seed    int64
	rate    float64
	train   [][]float64
	model   *core.Rules
	fills   []fillReq
	bodies  [][]byte // single-fill request bodies, parallel to fills
	batches [][]fillReq
	batchNd [][]byte // NDJSON batch bodies, parallel to batches
	stack   *stack
	fillURL string
	bulkURL string

	mu        sync.Mutex
	got       map[int][]float64 // first response per distinct fill request
	unstable  int               // responses differing from the first for the same request
	batchRows int               // batch rows sent
	batchBad  int               // batch rows not answered by their success line in order
}

const serveModel = "served"

func setupServe(ctx context.Context, sz sizes, seed int64) (fixture, error) {
	x, err := questMatrix(seed, sz.serveTrain+4096)
	if err != nil {
		return nil, err
	}
	rows := matrixRows(x)
	miner, err := core.NewMiner()
	if err != nil {
		return nil, err
	}
	train := rows[:sz.serveTrain]
	model, err := miner.Mine(&sliceSource{rows: train})
	if err != nil {
		return nil, fmt.Errorf("mining the served model: %w", err)
	}
	test := rows[sz.serveTrain:]
	f := &serveFixture{seed: seed, rate: sz.fillRate, train: train, model: model,
		fills: fillRequests(seed, test, sz.serveFills, sz.servePatterns), got: make(map[int][]float64)}
	for _, fr := range f.fills {
		f.bodies = append(f.bodies, appendFill(nil, fr))
	}
	for b := 0; b < sz.batchBodies; b++ {
		recs := fillRequests(seed+1+int64(b), test, sz.batchRows, sz.servePatterns)
		var nd []byte
		for _, fr := range recs {
			nd = append(appendFill(nd, fr), '\n')
		}
		f.batches, f.batchNd = append(f.batches, recs), append(f.batchNd, nd)
	}

	st, err := startStack(leaderConfig{geSlack: -1})
	if err != nil {
		return nil, err
	}
	f.stack = st
	base := st.leader.url + "/v1/rules/" + serveModel
	f.fillURL, f.bulkURL = base+"/fill", base+"/batch/fill"
	v, err := st.leader.reg.Put(ctx, serveModel, model)
	if err == nil && !waitVersion(st.follower.store, serveModel, v, visibleTimeout) {
		err = fmt.Errorf("follower never received version %d", v)
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("installing the served model: %w", err)
	}
	// Warm-up: connections, handlers and the plan cache.
	cl := newClient()
	for i := 0; i < min(100, len(f.bodies)); i++ {
		if _, err := f.fillOnce(cl, i); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up fill: %w", err)
		}
	}
	if _, err := f.batchOnce(cl, 0); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	return f, nil
}

// fillOnce sends single-fill request i and records its answer; ok is
// false for a non-200 or unreadable response.
func (f *serveFixture) fillOnce(cl *http.Client, i int) (bool, error) {
	code, body, err := post(cl, f.fillURL, "application/json", f.bodies[i])
	if err != nil {
		return false, err
	}
	var resp struct {
		Filled []float64 `json:"filled"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
		return false, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev, ok := f.got[i]; !ok {
		f.got[i] = resp.Filled
	} else if !slices.Equal(prev, resp.Filled) {
		f.unstable++
	}
	return true, nil
}

// batchOnce sends batch body b and returns how many rows came back
// filled, in input order.
func (f *serveFixture) batchOnce(cl *http.Client, b int) (int, error) {
	resp, err := cl.Post(f.bulkURL, "application/x-ndjson", bytes.NewReader(f.batchNd[b]))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, nil
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	good := 0
	for next := 0; ; next++ {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 && filledLine(line, next) {
			good++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return good, err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batchRows += len(f.batches[b])
	f.batchBad += len(f.batches[b]) - good
	return good, nil
}

var filledKey = []byte(`,"filled":`)

// filledLine reports whether line is the success line for row index.
func filledLine(line []byte, index int) bool {
	if !bytes.HasPrefix(line, ackPrefix) {
		return false
	}
	rest := line[len(ackPrefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 || !bytes.HasPrefix(rest[end:], filledKey) {
		return false
	}
	idx, err := strconv.Atoi(string(rest[:end]))
	return err == nil && idx == index
}

func (f *serveFixture) run(ctx context.Context, d time.Duration, rec *recorder) (runStats, error) {
	start := time.Now()
	deadline := start.Add(d)
	var (
		wg         sync.WaitGroup
		single     runStats
		late       []float64
		bulk       runStats
		bulkWall   time.Duration
		errA, errB error
	)
	wg.Add(2)
	go func() { // open loop: request i is due at start + i/rate
		defer wg.Done()
		cl := newClient()
		interval := time.Duration(float64(time.Second) / f.rate)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(deadline) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late = append(late, ms(time.Since(due)))
			id := rec.start("server.fill", 0)
			ok, err := f.fillOnce(cl, i%len(f.bodies))
			rec.end(id)
			if err != nil {
				errA = err
				return
			}
			single.attempted++
			if !ok {
				single.failed++
				continue
			}
			single.lat = append(single.lat, ms(time.Since(due)))
		}
	}()
	go func() { // closed loop batch fills
		defer wg.Done()
		cl := newClient()
		for b := 0; time.Now().Before(deadline); b++ {
			id := rec.start("server.batch_fill", 0)
			good, err := f.batchOnce(cl, b%len(f.batchNd))
			rec.end(id)
			if err != nil {
				errB = err
				return
			}
			rows := len(f.batches[b%len(f.batches)])
			bulk.attempted += rows
			bulk.failed += rows - good
			bulk.ops += float64(good)
		}
		bulkWall = time.Since(start)
	}()
	wg.Wait()
	if errA != nil {
		return runStats{}, errA
	}
	if errB != nil {
		return runStats{}, errB
	}
	st := runStats{
		attempted: single.attempted + bulk.attempted,
		failed:    single.failed + bulk.failed,
		ops:       bulk.ops,
		busy:      bulkWall,
		lat:       single.lat,
		raw: map[string]float64{
			"client.fill_p50_ms":  median(single.lat),
			"loadgen.late_p99_ms": percentile(late, 99),
		},
	}
	if bulk.ops > 0 {
		st.raw["client.batch_us_per_row"] = us(bulkWall) / bulk.ops
	}
	return st, nil
}

func (f *serveFixture) inputs() (layerInputs, error) {
	return layerInputs{rows: f.train, fills: f.fills, batch: f.batches[0], model: f.model}, nil
}

// check compares every distinct single-fill answer with an in-process
// Rules.FillRow of the same request, within 1e-9 relative.
func (f *serveFixture) check(context.Context) []check {
	f.mu.Lock()
	defer f.mu.Unlock()
	worst, bad := 0.0, 0
	for i, got := range f.got {
		want, err := f.model.FillRow(f.fills[i].record, f.fills[i].holes)
		if err != nil || len(want) != len(got) {
			bad++
			continue
		}
		for j := range want {
			scale := math.Max(1, math.Abs(want[j]))
			worst = math.Max(worst, math.Abs(got[j]-want[j])/scale)
		}
	}
	ok := bad == 0 && worst <= 1e-9 && f.unstable == 0 && len(f.got) > 0
	return []check{
		{"serve.fill_matches_inprocess", ok, fmt.Sprintf("k=%d, %d distinct requests, max rel error %.1e, %d failed, %d unstable repeats",
			f.model.K(), len(f.got), worst, bad, f.unstable)},
		{"serve.batch_in_order", f.batchRows > 0 && f.batchBad == 0,
			fmt.Sprintf("%d of %d batch rows without their success line in order", f.batchBad, f.batchRows)},
	}
}

func (f *serveFixture) close() { f.stack.close() }
