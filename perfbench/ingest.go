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
	"strconv"
	"sync"
	"time"

	"ratiorules/internal/core"
)

// ingestFixture: two connections each stream pre-encoded NDJSON rows
// into one model on the leader, full duplex, counting acks.
type ingestFixture struct {
	seed   int64
	rows   [][]float64
	bodies [][][]byte // [connection][body] NDJSON
	per    int        // rows per body
	stack  *stack
	url    string

	mu       sync.Mutex
	sent     [][]int // [connection][body] requests fully acked
	rowsSent int
	accepted int // sum of the done summaries' accepted counts
	bad      int // error lines, out-of-order acks, bad statuses
}

const ingestModel = "ingest"

func setupIngest(ctx context.Context, sz sizes, seed int64) (fixture, error) {
	per, nb := sz.ingestReqRows, sz.ingestBodies
	rows := ratioRows(seed, 2*nb*per, sz.ingestWidth)
	f := &ingestFixture{seed: seed, rows: rows, per: per, bodies: make([][][]byte, 2), sent: make([][]int, 2)}
	for c := range f.bodies {
		for b := 0; b < nb; b++ {
			lo := (c*nb + b) * per
			f.bodies[c] = append(f.bodies[c], ndjson(rows[lo:lo+per]))
		}
		f.sent[c] = make([]int, nb)
	}
	st, err := startStack(leaderConfig{republishRows: sz.ingestRepublish, geSlack: -1})
	if err != nil {
		return nil, err
	}
	f.stack = st
	f.url = st.leader.url + "/v1/rules/" + ingestModel + "/ingest"
	// Warm-up: one request per connection creates the stream.
	for c := range f.bodies {
		if _, err := f.send(newClient(), c, 0, nil); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up ingest: %w", err)
		}
	}
	return f, nil
}

// send streams body b of connection c and accounts for its acks.
func (f *ingestFixture) send(cl *http.Client, c, b int, rec *recorder) (ingestResult, error) {
	id := rec.start("server.ingest", 0)
	res, err := streamIngest(cl, f.url, f.bodies[c][b])
	rec.end(id)
	if err != nil {
		return res, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rowsSent += f.per
	f.accepted += res.done.Accepted
	if res.ok(f.per) {
		f.sent[c][b]++
	} else {
		f.bad++
	}
	return res, nil
}

func (f *ingestFixture) run(ctx context.Context, d time.Duration, rec *recorder) (runStats, error) {
	var (
		wg    sync.WaitGroup
		stats [2]runStats
		errs  [2]error
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			st := &stats[c]
			for i := 1; time.Now().Before(deadline); i++ {
				t := time.Now()
				res, err := f.send(cl, c, i%len(f.bodies[c]), rec)
				if err != nil {
					errs[c] = err
					return
				}
				st.attempted += f.per
				st.failed += f.per - res.acked
				st.ops += float64(res.acked)
				st.lat = append(st.lat, ms(time.Since(t)))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	out := runStats{busy: wall}
	for c, st := range stats {
		if errs[c] != nil {
			return out, errs[c]
		}
		out.attempted += st.attempted
		out.failed += st.failed
		out.ops += st.ops
		out.lat = append(out.lat, st.lat...)
	}
	if out.ops > 0 {
		out.raw = map[string]float64{"client.ingest_us_per_row": us(wall) / out.ops}
	}
	return out, nil
}

func (f *ingestFixture) inputs() (layerInputs, error) {
	in := layerInputs{
		rows:  f.rows,
		fills: fillRequests(f.seed, f.rows, replayFills, 512),
		batch: fillRequests(f.seed+1, f.rows, 1000, 512),
	}
	in.model, _, _ = f.stack.leader.store.Get(ingestModel)
	return in, nil
}

func (f *ingestFixture) check(ctx context.Context) []check {
	f.mu.Lock()
	rowsSent, accepted, bad := f.rowsSent, f.accepted, f.bad
	f.mu.Unlock()
	checks := []check{{"ingest.acks", bad == 0,
		fmt.Sprintf("%d requests with a bad status, an error line or an out-of-order ack", bad)}}

	var status struct {
		Rows int `json:"rows"`
	}
	code, body, _, err := get(newClient(), f.stack.leader.url+"/v1/rules/"+ingestModel+"/stream")
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &status)
	}
	checks = append(checks, check{"ingest.counts", err == nil && accepted == rowsSent && status.Rows == rowsSent,
		fmt.Sprintf("sent %d, done summaries accepted %d, stream holds %d (err %v)", rowsSent, accepted, status.Rows, err)})

	return append(checks, f.checkBatch(ctx, rowsSent))
}

// checkBatch republishes synchronously and compares the promoted model
// with batch mining of the very rows the stream received (decay 0).
func (f *ingestFixture) checkBatch(ctx context.Context, rowsSent int) check {
	const name = "ingest.decay0_equals_batch"
	res, err := f.stack.leader.mgr.Republish(ctx, ingestModel)
	if err != nil || !res.Promoted {
		return check{name, false, fmt.Sprintf("final republish: promoted=%v reason=%q err=%v", res.Promoted, res.Reason, err)}
	}
	live, _, _ := f.stack.leader.store.Get(ingestModel)
	var all [][]float64
	for c := range f.sent {
		for b, n := range f.sent[c] {
			lo := (c*len(f.sent[c]) + b) * f.per
			for ; n > 0; n-- {
				all = append(all, f.rows[lo:lo+f.per]...)
			}
		}
	}
	miner, _ := core.NewMiner()
	batch, err := miner.Mine(&sliceSource{rows: all})
	if err != nil {
		return check{name, false, err.Error()}
	}
	diff, info := compareRules(live, batch)
	ok := live.TrainedRows() == rowsSent && len(all) == rowsSent && diff <= 1e-6
	return check{name, ok, fmt.Sprintf("trained %d of %d rows; %s", live.TrainedRows(), rowsSent, info)}
}

func (f *ingestFixture) close() { f.stack.close() }

// compareRules returns the worst difference between two rule sets:
// eigenvalues relative to the largest, rules and means per cell
// (relative to the largest mean). A different k is an infinite
// difference.
func compareRules(a, b *core.Rules) (float64, string) {
	if a.K() != b.K() || a.M() != b.M() {
		return math.Inf(1), fmt.Sprintf("k=%d vs %d, m=%d vs %d", a.K(), b.K(), a.M(), b.M())
	}
	ea, eb := a.Eigenvalues(), b.Eigenvalues()
	worst := 0.0
	for i := range ea {
		worst = math.Max(worst, math.Abs(ea[i]-eb[i])/eb[0])
		ra, rb := a.Rule(i), b.Rule(i)
		sign := 1.0
		if dot(ra, rb) < 0 {
			sign = -1
		}
		for j := range ra {
			worst = math.Max(worst, math.Abs(ra[j]-sign*rb[j]))
		}
	}
	ma, mb := a.Means(), b.Means()
	scale := 0.0
	for _, v := range mb {
		scale = math.Max(scale, math.Abs(v))
	}
	for j := range ma {
		worst = math.Max(worst, math.Abs(ma[j]-mb[j])/scale)
	}
	return worst, fmt.Sprintf("k=%d, max difference %.1e", a.K(), worst)
}

// ingestDone mirrors the server's done summary line.
type ingestDone struct {
	Rows     int `json:"rows"`
	Accepted int `json:"accepted"`
	Errors   int `json:"errors"`
	Count    int `json:"count"`
}

// ingestResult is what one streamed ingest request returned.
type ingestResult struct {
	status     int
	acked      int // ack lines, each carrying the next expected index
	errLines   int
	outOfOrder int
	done       ingestDone
	gotDone    bool
}

// ok reports a clean request: 200, every row acked in order, the done
// summary accepting them all.
func (r ingestResult) ok(rows int) bool {
	return r.status == http.StatusOK && r.acked == rows && r.errLines == 0 &&
		r.outOfOrder == 0 && r.gotDone && r.done.Accepted == rows && r.done.Errors == 0
}

var (
	ackPrefix  = []byte(`{"index":`)
	ackCount   = []byte(`,"count":`)
	donePrefix = []byte(`{"done":`)
)

// streamIngest POSTs an NDJSON body to an ingest URL and reads the
// per-row lines while the transport is still sending (full duplex).
func streamIngest(c *http.Client, url string, body []byte) (ingestResult, error) {
	var res ingestResult
	resp, err := c.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return res, nil
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			res.readLine(bytes.TrimSpace(line))
		}
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
	}
}

func (r *ingestResult) readLine(line []byte) {
	switch {
	case bytes.HasPrefix(line, donePrefix):
		var d struct {
			Done ingestDone `json:"done"`
		}
		if json.Unmarshal(line, &d) == nil {
			r.done, r.gotDone = d.Done, true
		} else {
			r.errLines++
		}
	case bytes.HasPrefix(line, ackPrefix):
		rest := line[len(ackPrefix):]
		end := bytes.IndexByte(rest, ',')
		if end < 0 || !bytes.HasPrefix(rest[end:], ackCount) {
			r.errLines++
			return
		}
		if idx, err := strconv.Atoi(string(rest[:end])); err != nil || idx != r.acked {
			r.outOfOrder++
		}
		r.acked++
	default:
		r.errLines++
	}
}
