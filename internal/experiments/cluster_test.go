package experiments

import "testing"

// TestRunClusterExact runs the cluster experiment small and checks the
// property the benchmark exists to demonstrate: the shard-merged model
// guesses exactly like the single-node one (Merge sums the same
// sufficient statistics).
func TestRunClusterExact(t *testing.T) {
	res, err := RunCluster(6000, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.GE1RelDiff > 1e-9 {
		t.Fatalf("shard merge not exact: single GE1 %.17g, cluster GE1 %.17g (rel %.3g)",
			res.SingleGE1, res.ClusterGE1, res.GE1RelDiff)
	}
	if res.SingleRowsPerS <= 0 || res.ClusterRowsPerS <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
	if s := res.String(); s == "" {
		t.Fatal("empty render")
	}
}
