package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"ratiorules/internal/quest"
)

// republishFixture: a closed loop on one connection. Each cycle POSTs
// fresh Quest rows as one ingest request; the last row wakes the
// leader's background republisher, and the cycle ends when the
// follower's store holds the new version.
type republishFixture struct {
	seed    int64
	per     int
	src     *quest.Source
	stack   *stack
	url     string
	version int // the version the last cycle made visible
}

const (
	republishModel = "live"
	// visibleTimeout bounds one cycle's wait; a cycle not visible by
	// then counts as failed.
	visibleTimeout = 10 * time.Second
	warmCycles     = 2
)

func setupRepublish(ctx context.Context, sz sizes, seed int64) (fixture, error) {
	src, err := questSource(seed, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	// A cycle's last row crosses -republish-rows (256, the default, at
	// full size). The raised slack promotes every candidate; the gate
	// still scores both models.
	st, err := startStack(leaderConfig{republishRows: sz.cycleRows, geSlack: 1e9})
	if err != nil {
		return nil, err
	}
	f := &republishFixture{seed: seed, per: sz.cycleRows, src: src, stack: st,
		url: st.leader.url + "/v1/rules/" + republishModel + "/ingest"}
	cl := newClient()
	for i := 0; i < warmCycles; i++ {
		if _, ok, err := f.cycle(cl, nil); err != nil || !ok {
			st.close()
			return nil, fmt.Errorf("warm-up cycle %d: ok=%v err=%v", i, ok, err)
		}
	}
	return f, nil
}

// nextBody encodes the next cycle's rows.
func (f *republishFixture) nextBody() ([]byte, error) {
	var b []byte
	for i := 0; i < f.per; i++ {
		row, err := f.src.Next()
		if err != nil {
			return nil, err
		}
		b = appendRow(b, row)
		b = append(b, '\n')
	}
	return b, nil
}

// cycleTimes is one cycle's client-side timing.
type cycleTimes struct {
	busy    time.Duration // POST start to visible on the follower
	ingest  time.Duration // POST start to done line
	visible time.Duration // done line read to visible on the follower
}

// cycle runs one ingest-republish-replicate cycle; ok is false when the
// ingest was not clean or the version did not reach the follower.
func (f *republishFixture) cycle(cl *http.Client, rec *recorder) (cycleTimes, bool, error) {
	var ct cycleTimes
	body, err := f.nextBody()
	if err != nil {
		return ct, false, err
	}
	root := rec.start("republish.cycle", 0)
	defer rec.end(root)
	start := time.Now()
	id := rec.start("server.ingest", root)
	res, err := streamIngest(cl, f.url, body)
	rec.end(id)
	if err != nil {
		return ct, false, err
	}
	done := time.Now()
	want := f.version + 1
	vis := rec.start("republish.visible", root)
	okLeader := waitVersion(f.stack.leader.store, republishModel, want, visibleTimeout)
	apply := rec.start("replica.apply", vis)
	okFollower := okLeader && waitVersion(f.stack.follower.store, republishModel, want, visibleTimeout)
	rec.end(apply)
	rec.end(vis)
	end := time.Now()
	ct.busy, ct.ingest, ct.visible = end.Sub(start), done.Sub(start), end.Sub(done)
	// Resynchronize with whatever the leader holds, so one lost cycle
	// does not fail every later one.
	_, f.version, _ = f.stack.leader.store.Get(republishModel)
	return ct, res.ok(f.per) && okFollower && f.version == want, nil
}

func (f *republishFixture) run(ctx context.Context, d time.Duration, rec *recorder) (runStats, error) {
	var (
		st     runStats
		ingest time.Duration
	)
	cl := newClient()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		ct, ok, err := f.cycle(cl, rec)
		if err != nil {
			return st, err
		}
		st.attempted++
		if !ok {
			st.failed++
			continue
		}
		st.ops++
		st.busy += ct.busy
		ingest += ct.ingest
		st.lat = append(st.lat, ms(ct.visible))
	}
	st.raw = map[string]float64{"client.visible_p50_ms": median(st.lat)}
	if st.ops > 0 {
		st.raw["client.ingest_us_per_row"] = us(ingest) / (st.ops * float64(f.per))
	}
	if rec != nil {
		st.raw["replica.apply_ms"] = rec.medianMS("replica.apply")
	}
	return st, nil
}

func (f *republishFixture) inputs() (layerInputs, error) {
	x, err := questMatrix(f.seed, 64*f.per)
	if err != nil {
		return layerInputs{}, err
	}
	rows := matrixRows(x)
	in := layerInputs{
		rows:  rows,
		fills: fillRequests(f.seed, rows, replayFills, 512),
		batch: fillRequests(f.seed+1, rows, 1000, 512),
	}
	in.model, _, _ = f.stack.leader.store.Get(republishModel)
	return in, nil
}

func (f *republishFixture) check(context.Context) []check {
	st, _ := f.stack.leader.mgr.Status(republishModel)
	checks := []check{{"republish.all_promoted", st.Republishes > 0 && st.Promotions == st.Republishes,
		fmt.Sprintf("%d promotions of %d republishes", st.Promotions, st.Republishes)}}
	path := "/v1/rules/" + republishModel
	cl := newClient()
	lc, lb, le, lerr := get(cl, f.stack.leader.url+path)
	fc, fb, fe, ferr := get(cl, f.stack.follower.url+path)
	same := lerr == nil && ferr == nil && lc == 200 && fc == 200 && bytes.Equal(lb, fb) && le == fe && le != ""
	return append(checks, check{"republish.follower_identical", same,
		fmt.Sprintf("leader %d %s (%d bytes), follower %d %s (%d bytes)", lc, le, len(lb), fc, fe, len(fb))})
}

func (f *republishFixture) close() { f.stack.close() }
