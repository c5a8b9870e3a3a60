package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"sync"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/eigen"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/online"
	"ratiorules/internal/server"
	"ratiorules/internal/stats"
	"ratiorules/internal/store"
)

// The traced run splits a workload's time across layers by calling each
// layer's public functions in-process on the workload's own generated
// inputs, with a span around every call. Nothing inside the program is
// instrumented.

// layerInputs are the inputs a workload's layer replays run on.
type layerInputs struct {
	rows  [][]float64 // training, ingest or cycle rows
	fills []fillReq   // single-fill records
	batch []fillReq   // one batch body
	model *core.Rules // the model fills run against
}

const (
	// replayStreamRows caps the rows pushed through online.Stream per
	// replay round, which bounds a round's cost on the 100k-row input.
	replayStreamRows = 20000
	replayCycleRows  = 256 // rows pushed before each timed republish
	replayHoldout    = online.DefaultReservoirSize
	replayFills      = 64   // single fills timed per round
	replayGets       = 1000 // store gets per timed span
)

// sliceSource is a core.RowSource over in-memory rows.
type sliceSource struct {
	rows [][]float64
	i    int
}

func (s *sliceSource) Width() int { return len(s.rows[0]) }

func (s *sliceSource) Next() ([]float64, error) {
	if s.i >= len(s.rows) {
		return nil, io.EOF
	}
	s.i++
	return s.rows[s.i-1], nil
}

// allocs reads the process's cumulative heap allocation count.
func allocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeFn runs fn as one span named name, adding its duration to the
// round's total for that name.
type timeFn func(name string, fn func())

// replayLayers runs rounds of layer calls on in until budget is spent
// (at least minRounds) and stores the layer metrics in out. Each
// metric is the median over rounds; differences are taken within a
// round.
func replayLayers(ctx context.Context, rec *recorder, in layerInputs, budget time.Duration, minRounds int, out map[string]float64) error {
	miner, err := core.NewMiner()
	if err != nil {
		return err
	}
	m := len(in.rows[0])
	model := in.model
	if model == nil {
		if model, err = miner.MineContext(ctx, &sliceSource{rows: in.rows}); err != nil {
			return fmt.Errorf("mining replay model: %w", err)
		}
	}
	streamRows := in.rows[:min(len(in.rows), replayStreamRows)]
	samples := make(map[string][]float64) // per round, in ms or per-unit figures
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	deadline := time.Now().Add(budget)
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		root := rec.start("bench.replay", 0)
		total := make(map[string]time.Duration)
		timed := func(name string, fn func()) { total[name] += rec.timed(name, root, fn) }

		// Fig. 2(a) scan, covariance and (b) eigensolve, then the same
		// through the miner: what the miner adds beyond them is its own.
		acc := stats.NewCovAccumulator(m)
		var scatter *matrix.Dense
		timed("stats.push", func() {
			for _, row := range in.rows {
				if err = acc.Push(row); err != nil {
					return
				}
			}
		})
		if err == nil {
			timed("stats.scatter", func() {
				if scatter, err = acc.Scatter(); err == nil {
					_, err = acc.Means()
				}
			})
		}
		if err == nil {
			timed("eigen.solve", func() { _, err = eigen.SymEig(scatter) })
		}
		if err != nil {
			return fmt.Errorf("replaying scan and solve: %w", err)
		}
		a0 := allocs()
		timed("core.mine", func() { _, err = miner.MineContext(ctx, &sliceSource{rows: in.rows}) })
		add("core.mine_allocs", float64(allocs()-a0))
		if err != nil {
			return fmt.Errorf("replaying mine: %w", err)
		}

		// online.Stream.Push, alone and with two goroutines on one stream.
		a0 = allocs()
		var (
			mgr *online.Manager
			st  *online.Stream
		)
		if mgr, st, err = replayStream(); err != nil {
			return err
		}
		timed("online.push", func() {
			for _, row := range streamRows {
				if _, err = st.Push(ctx, row); err != nil {
					return
				}
			}
		})
		add("online.push_allocs_per_row", float64(allocs()-a0)/float64(len(streamRows)))
		if err == nil {
			err = replayContended(ctx, timed, streamRows)
		}
		if err == nil {
			err = replayRepublish(ctx, timed, mgr, st, in.rows, streamRows)
		}
		_ = mgr.Close()
		if err == nil {
			err = replayFill(timed, model, in)
		}
		rec.end(root)
		if err != nil {
			return err
		}

		msOf := func(name string) float64 { return ms(total[name]) }
		add("stats.push_ns_per_cell", float64(total["stats.push"])/float64(len(in.rows)*m))
		add("stats.scatter_ms", msOf("stats.scatter"))
		add("eigen.solve_ms", msOf("eigen.solve"))
		add("core.mine_self_ms", msOf("core.mine")-msOf("stats.push")-msOf("stats.scatter")-msOf("eigen.solve"))
		add("online.push_us_per_row", us(total["online.push"])/float64(len(streamRows)))
		add("online.push_contended_us_per_row", us(total["online.push_contended"])/float64(len(streamRows)))
		for _, name := range []string{"online.republish", "online.snapshot", "core.stream_rules", "core.ge_gate", "store.commit"} {
			add(name+"_ms", msOf(name))
		}
		fills := min(replayFills, len(in.fills))
		add("core.fill_ms", msOf("core.fill")/float64(fills))
		add("core.fill_solve_us", us(total["core.fill_solve"])/float64(len(in.batch)))
		add("core.batch_fill_us_per_row", us(total["core.batch_fill"])/float64(len(in.batch)))
		add("store.get_us", us(total["store.get"])/replayGets)
	}
	for name, v := range samples {
		out[name] = median(v)
	}
	return nil
}

// replayStream builds a private manager (own metrics, never started,
// no row-count trigger in reach) and its one stream.
func replayStream() (*online.Manager, *online.Stream, error) {
	st := store.OpenMemory(store.WithObs(obs.NewRegistry()))
	mgr, err := online.NewManager(server.NewRegistryWithStore(st), online.Config{
		RepublishRows: 1 << 30, GESlack: 1e9, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return nil, nil, err
	}
	s, err := mgr.Stream("replay", 0, false)
	if err != nil {
		_ = mgr.Close()
		return nil, nil, err
	}
	return mgr, s, nil
}

// replayContended pushes rows into one stream from two goroutines.
func replayContended(ctx context.Context, timed timeFn, rows [][]float64) error {
	mgr, st, err := replayStream()
	if err != nil {
		return err
	}
	defer mgr.Close()
	errs := make([]error, 2)
	timed("online.push_contended", func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(rows); i += 2 {
					if _, err := st.Push(ctx, rows[i]); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("contended push: %w", err)
		}
	}
	return nil
}

// replayRepublish times Manager.Republish on a stream that already
// serves a model, then the same steps one by one: snapshot (Save +
// LoadStreamMiner), StreamMiner.Rules, the two GE1With calls of the gate
// and the store commit.
func replayRepublish(ctx context.Context, timed timeFn, mgr *online.Manager, st *online.Stream, rows, pushed [][]float64) error {
	if _, err := mgr.Republish(ctx, "replay"); err != nil {
		return fmt.Errorf("first replay republish: %w", err)
	}
	sm, err := core.NewStreamMiner(len(rows[0]), 0)
	if err != nil {
		return err
	}
	for _, row := range pushed {
		if err := sm.Push(row); err != nil {
			return err
		}
	}
	served, err := sm.Rules()
	if err != nil {
		return err
	}
	more := rows[len(rows)-min(len(rows), replayCycleRows):]
	for _, row := range more {
		if _, err := st.Push(ctx, row); err != nil {
			return err
		}
		if err := sm.Push(row); err != nil {
			return err
		}
	}
	timed("online.republish", func() { _, err = mgr.Republish(ctx, "replay") })
	if err != nil {
		return fmt.Errorf("replay republish: %w", err)
	}

	holdout, err := matrix.FromRows(rows[:min(len(rows), replayHoldout)])
	if err != nil {
		return err
	}
	if _, err := core.GE1With(served, holdout, core.GEOptions{}); err != nil {
		return err // warms the served model's plans, as its own gate did
	}
	var (
		buf       bytes.Buffer
		clone     *core.StreamMiner
		candidate *core.Rules
	)
	timed("online.snapshot", func() {
		if err = sm.Save(&buf); err == nil {
			clone, err = core.LoadStreamMiner(&buf)
		}
	})
	if err == nil {
		timed("core.stream_rules", func() { candidate, err = clone.Rules() })
	}
	if err == nil {
		timed("core.ge_gate", func() {
			if _, err = core.GE1With(candidate, holdout, core.GEOptions{}); err == nil {
				_, err = core.GE1With(served, holdout, core.GEOptions{})
			}
		})
	}
	if err == nil {
		target := store.OpenMemory(store.WithObs(obs.NewRegistry()))
		if _, err = target.PutContext(ctx, "replay", served); err == nil {
			timed("store.commit", func() { _, err = target.PutContext(ctx, "replay", candidate) })
		}
		if err == nil {
			timed("store.get", func() {
				for i := 0; i < replayGets; i++ {
					target.Get("replay")
				}
			})
		}
	}
	if err != nil {
		return fmt.Errorf("replaying republish steps: %w", err)
	}
	return nil
}

// replayFill times single fills, batch fills on one warm pattern, and
// batch fills on a batch body's own patterns.
func replayFill(timed timeFn, model *core.Rules, in layerInputs) error {
	for i := 0; i < min(replayFills, len(in.fills)); i++ {
		f := in.fills[i]
		var err error
		timed("core.fill", func() { _, err = model.FillRow(f.record, f.holes) })
		if err != nil {
			return fmt.Errorf("replay fill: %w", err)
		}
	}
	rows := make([][]float64, len(in.batch))
	own := make([][]int, len(in.batch))
	warm := make([][]int, len(in.batch))
	for i, f := range in.batch {
		rows[i], own[i], warm[i] = f.record, f.holes, in.batch[0].holes
	}
	opts := core.BatchOptions{}
	model.BatchFillSlice(rows[:1], warm[:1], opts)
	var res []core.FillResult
	timed("core.fill_solve", func() { res = model.BatchFillSlice(rows, warm, opts) })
	if err := batchErr(res); err != nil {
		return err
	}
	timed("core.batch_fill", func() { res = model.BatchFillSlice(rows, own, opts) })
	return batchErr(res)
}

func batchErr(res []core.FillResult) error {
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("replay batch fill row %d: %w", r.Index, r.Err)
		}
	}
	return nil
}
