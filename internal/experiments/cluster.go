package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"strings"
	"time"

	"ratiorules/internal/cluster"
	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/online"
)

// ClusterResult measures the sharded ingest/mining cluster against a
// single node on identical data: pushed-rows/s through the coordinator
// fan-out vs. through one local stream, and the guessing error of the
// shard-merged model vs. the single-node model — which must agree to
// float precision, because Merge sums the exact same sufficient
// statistics a single accumulator would hold (the shard-then-merge
// exactness of the paper's single-pass design, Korn et al. §5).
type ClusterResult struct {
	Rows    int `json:"rows"`
	Width   int `json:"width"`
	Workers int `json:"workers"`
	Chunk   int `json:"chunk_rows"`

	SingleSeconds  float64 `json:"single_seconds"`
	SingleRowsPerS float64 `json:"single_rows_per_second"`

	ClusterSeconds  float64 `json:"cluster_seconds"`
	ClusterRowsPerS float64 `json:"cluster_rows_per_second"`
	Speedup         float64 `json:"speedup"`

	SingleGE1  float64 `json:"single_ge1"`
	ClusterGE1 float64 `json:"cluster_ge1"`
	GE1RelDiff float64 `json:"ge1_rel_diff"` // |cluster-single| / max(single, eps)
}

// clusterData builds rank-2 latent rows with mild multiplicative noise
// plus a disjoint holdout matrix for GE comparison.
func clusterData(rows, width, holdout int) (flat [][]float64, test *matrix.Dense, err error) {
	rng := rand.New(rand.NewSource(SplitSeed))
	p1 := make([]float64, width)
	p2 := make([]float64, width)
	for j := range p1 {
		p1[j] = 1 + rng.Float64()*4
		p2[j] = 0.5 + rng.Float64()*2
	}
	gen := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			a := 1 + rng.Float64()*9
			b := rng.Float64() * 3
			row := make([]float64, width)
			for j := range row {
				row[j] = (p1[j]*a + p2[j]*b) * (1 + 0.05*rng.NormFloat64())
			}
			out[i] = row
		}
		return out
	}
	flat = gen(rows)
	test, err = matrix.FromRows(gen(holdout))
	return flat, test, err
}

// newBenchManager builds an isolated manager whose reservoir sampling
// is seeded identically across the single-node and cluster runs, so
// both publish through the same gate decision on the same holdout.
func newBenchManager() (*memStore, *online.Manager, error) {
	store := &memStore{}
	mgr, err := online.NewManager(store, online.Config{
		RepublishRows: 1 << 30, // triggers driven explicitly
		Metrics:       obs.Default(),
		Seed:          SplitSeed,
	})
	return store, mgr, err
}

// RunCluster benchmarks a coordinator fronting workers (default 4)
// in-process worker nodes against one local stream pushing the same
// rows (default 200000) of width (default 32).
func RunCluster(rows, width, workers int) (*ClusterResult, error) {
	if rows <= 0 {
		rows = 200000
	}
	if width <= 0 {
		width = 32
	}
	if workers <= 0 {
		workers = 4
	}
	out := &ClusterResult{Rows: rows, Width: width, Workers: workers,
		Chunk: cluster.DefaultChunkRows}
	data, test, err := clusterData(rows, width, 256)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Single node: one live stream, timed over raw Push.
	store1, mgr1, err := newBenchManager()
	if err != nil {
		return nil, err
	}
	defer mgr1.Close()
	stream, err := mgr1.Stream("bench", 0, false)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, row := range data {
		if _, err := stream.Push(ctx, row); err != nil {
			return nil, fmt.Errorf("experiments: single-node push: %w", err)
		}
	}
	out.SingleSeconds = time.Since(t0).Seconds()
	if _, err := mgr1.Republish(ctx, "bench"); err != nil {
		return nil, fmt.Errorf("experiments: single-node republish: %w", err)
	}
	single, _, ok := store1.GetWithVersion("bench")
	if !ok {
		return nil, fmt.Errorf("experiments: single-node model was not published")
	}

	// Cluster: in-process worker nodes (the ISSUE's benchmark shape),
	// coordinator fan-out session, timed over Push + Close (Close waits
	// for every ack). In-process transport measures the sharded
	// pipeline itself — chunking, hashing, reservoir, batched fold,
	// merge — rather than loopback socket throughput.
	nodes := make([]*cluster.Worker, workers)
	for i := range nodes {
		nodes[i] = cluster.NewWorker(cluster.WithWorkerObs(obs.Default()))
	}
	store2, mgr2, err := newBenchManager()
	if err != nil {
		return nil, err
	}
	defer mgr2.Close()
	coord, err := cluster.New(cluster.Config{
		LocalWorkers:  nodes,
		Manager:       mgr2,
		PullEvery:     time.Hour, // merges driven explicitly below
		HealthEvery:   time.Hour,
		RepublishRows: 1 << 30,
	})
	if err != nil {
		return nil, err
	}
	coord.Start()
	defer coord.Close(ctx)
	sess, err := coord.Ingest(ctx, "bench", 0, false)
	if err != nil {
		return nil, err
	}
	drainErr := make(chan error, 1)
	go func() {
		for ev := range sess.Acks() {
			if ev.Err != nil {
				drainErr <- ev.Err
				for range sess.Acks() {
				}
				return
			}
		}
		drainErr <- nil
	}()
	t1 := time.Now()
	for _, row := range data {
		if err := sess.Push(row); err != nil {
			return nil, fmt.Errorf("experiments: cluster push: %w", err)
		}
	}
	if err := sess.Close(); err != nil {
		return nil, fmt.Errorf("experiments: cluster session: %w", err)
	}
	out.ClusterSeconds = time.Since(t1).Seconds()
	if err := <-drainErr; err != nil {
		return nil, fmt.Errorf("experiments: cluster ack: %w", err)
	}
	if err := coord.MergeNow(ctx, "bench"); err != nil {
		return nil, fmt.Errorf("experiments: cluster merge: %w", err)
	}
	merged, _, ok := store2.GetWithVersion("bench")
	if !ok {
		return nil, fmt.Errorf("experiments: merged model was not published")
	}

	if out.SingleSeconds > 0 {
		out.SingleRowsPerS = float64(rows) / out.SingleSeconds
	}
	if out.ClusterSeconds > 0 {
		out.ClusterRowsPerS = float64(rows) / out.ClusterSeconds
	}
	if out.SingleRowsPerS > 0 {
		out.Speedup = out.ClusterRowsPerS / out.SingleRowsPerS
	}

	// Exactness: the merged model must guess exactly like the
	// single-node one on a holdout neither trained on.
	if out.SingleGE1, err = core.GE1(single, test); err != nil {
		return nil, err
	}
	if out.ClusterGE1, err = core.GE1(merged, test); err != nil {
		return nil, err
	}
	denom := math.Max(math.Abs(out.SingleGE1), 1e-300)
	out.GE1RelDiff = math.Abs(out.ClusterGE1-out.SingleGE1) / denom

	return out, nil
}

// String renders the cluster-vs-single comparison.
func (r *ClusterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded cluster: %d rows x %d cols over %d workers (chunk %d)\n\n",
		r.Rows, r.Width, r.Workers, r.Chunk)
	fmt.Fprintf(&b, "%-36s %14.0f rows/s (%.2fs)\n", "single node push",
		r.SingleRowsPerS, r.SingleSeconds)
	fmt.Fprintf(&b, "%-36s %14.0f rows/s (%.2fs)\n", "cluster fan-out push",
		r.ClusterRowsPerS, r.ClusterSeconds)
	fmt.Fprintf(&b, "%-36s %14.2fx\n", "speedup", r.Speedup)
	fmt.Fprintf(&b, "\n%-36s %14.6g\n", "single-node GE1", r.SingleGE1)
	fmt.Fprintf(&b, "%-36s %14.6g\n", "shard-merged GE1", r.ClusterGE1)
	fmt.Fprintf(&b, "%-36s %14.3g (exact shard merge)\n", "relative difference", r.GE1RelDiff)
	return b.String()
}
