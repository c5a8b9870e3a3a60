// Command perfbench is the repository's benchmark: four seeded
// workloads (mine, ingest, republish, serve) run against the real code
// paths — the in-process miner, and leader and follower server handlers
// on 127.0.0.1 listeners — with their outputs checked. An untraced run
// prints the end-to-end metrics; a traced run (-trace 1) splits each
// workload's time across the layers it crosses. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mine --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ratiorules/internal/obs"
)

// sizes are the input sizes of every workload; tests shrink them.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median

	mineRows int // Quest rows mined per call (M=100)

	ingestWidth     int // M of the ingest rows
	ingestReqRows   int // rows per ingest request
	ingestBodies    int // distinct pre-encoded request bodies per connection
	ingestRepublish int // leader -republish-rows

	cycleRows int // rows per republish cycle

	serveTrain    int     // Quest rows the served model is mined from
	serveFills    int     // distinct single-fill requests
	servePatterns int     // distinct 3-hole patterns
	batchRows     int     // rows per batch-fill body
	batchBodies   int     // distinct batch-fill bodies
	fillRate      float64 // open-loop single fills per second

	replayRounds int // minimum rounds of layer replays
}

func fullSizes() sizes {
	return sizes{
		setupReps:       3,
		mineRows:        100000,
		ingestWidth:     32,
		ingestReqRows:   4096,
		ingestBodies:    4,
		ingestRepublish: 65536,
		cycleRows:       256,
		serveTrain:      20000,
		serveFills:      2048,
		servePatterns:   512,
		batchRows:       1000,
		batchBodies:     8,
		fillRate:        250,
		replayRounds:    3,
	}
}

// fixture is one workload's set-up state: servers, inputs and what the
// runs so far sent and received.
type fixture interface {
	// run drives the workload for d; a non-nil rec records spans.
	run(ctx context.Context, d time.Duration, rec *recorder) (runStats, error)
	// inputs returns what the layer replays run on.
	inputs() (layerInputs, error)
	// check verifies the outputs of every run so far.
	check(ctx context.Context) []check
	close()
}

// runStats is what one run of a fixture measured.
type runStats struct {
	attempted, failed int
	ops               float64       // completed ops, for ops_per_s
	busy              time.Duration // wall time the ops took
	lat               []float64     // latency samples in ms
	// raw holds client-side figures the traced run turns into layer
	// self times, and layer metrics only the live run can see.
	raw map[string]float64
}

type check struct {
	name string
	ok   bool
	info string
}

// spec describes a workload: how to set it up and how its generic
// end-to-end metrics read in the workload's own terms.
type spec struct {
	name    string
	setup   func(ctx context.Context, sz sizes, seed int64) (fixture, error)
	opsName string  // what ops_per_s is on this workload
	opsUnit string  // ... and its unit
	latName string  // what latency_* time, e.g. "fill"
	tailPct float64 // the percentile latency_tail_ms reports
}

var specs = map[string]spec{
	"mine":      {"mine", setupMine, "mine_rows_per_s", "rows/s", "mine_call", 90},
	"ingest":    {"ingest", setupIngest, "ingest_rows_per_s", "rows/s", "ingest_request", 90},
	"republish": {"republish", setupRepublish, "republish_cycles_per_s", "1/s", "republish_visible", 90},
	"serve":     {"serve", setupServe, "batch_fill_rows_per_s", "rows/s", "fill", 99},
}

// value is one printed metric.
type value struct {
	name, unit string
	v          float64
	n          int // samples behind a percentile; 0 when not one
}

type report struct {
	attempted, failed int
	metrics           []value // the JSON metrics, in contract order
	aliases           []value // the same figures under the workload's names
	checks            []check
	notes             []string
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: mine, ingest, republish or serve")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 10, "seconds to measure")
	traced := fs.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where the traced mode writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames, "|"))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// The contract is an exit within 180 s whatever happens; a hung
	// server must not hold the run past it.
	watchdog := time.AfterFunc(time.Duration(*seconds)*time.Second+150*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: watchdog: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()
	fmt.Fprintln(stdout, envLine(sp.name, *seed, *traced))
	rep, err := runWorkload(context.Background(), sp, fullSizes(), *seed, time.Duration(*seconds)*time.Second, *traced == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	correct := printReport(stdout, rep)
	if !correct {
		return 1
	}
	return 0
}

// runWorkload sets the workload up setupReps times (keeping the last)
// and runs it untraced, or in the traced mode.
func runWorkload(ctx context.Context, sp spec, sz sizes, seed int64, d time.Duration, traced bool, traceDir string) (*report, error) {
	var (
		fx     fixture
		setups []float64
	)
	// Deriving the Quest seed is a search over candidate seeds whose
	// length depends on the seed; it picks the inputs and is not set-up.
	if _, err := questSeed(seed); err != nil {
		return nil, err
	}
	for i := 0; i < sz.setupReps; i++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		var err error
		if fx, err = sp.setup(ctx, sz, seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer fx.close()
	// Start the measured phase from a collected heap, so heap_peak_mb
	// does not depend on how much set-up garbage is still around.
	runtime.GC()
	if traced {
		return runTraced(ctx, sp, sz, fx, seed, d, traceDir)
	}

	ph := beginPhase()
	st, err := fx.run(ctx, d, nil)
	_, heapMB, _ := ph.end()
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", sp.name, err)
	}
	rep := &report{attempted: st.attempted, failed: st.failed, checks: fx.check(ctx)}
	opsPerS := 0.0
	if st.busy > 0 {
		opsPerS = st.ops / st.busy.Seconds()
	}
	p50, tail := percentile(st.lat, 50), percentile(st.lat, sp.tailPct)
	n := len(st.lat)
	rep.metrics = []value{
		{"setup_s", "s", median(setups), len(setups)},
		{"heap_peak_mb", "MiB", heapMB, 0},
		{"ops_per_s", "1/s", opsPerS, 0},
		{"latency_p50_ms", "ms", p50, n},
		{"latency_tail_ms", "ms", tail, n},
	}
	rep.aliases = []value{
		{sp.opsName, sp.opsUnit, opsPerS, 0},
		{sp.latName + "_p50_ms", "ms", p50, n},
		{fmt.Sprintf("%s_p%g_ms", sp.latName, sp.tailPct), "ms", tail, n},
	}
	return rep, nil
}

// runTraced runs the workload untraced and traced for a third of d
// each, then replays the layers in-process for the last third.
func runTraced(ctx context.Context, sp spec, sz sizes, fx fixture, seed int64, d time.Duration, traceDir string) (*report, error) {
	seg := d / 3
	plain, err := fx.run(ctx, seg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s untraced segment: %w", sp.name, err)
	}
	rec := newRecorder()
	before := obs.Default().Snapshot()
	ph := beginPhase()
	tr, err := fx.run(ctx, seg, rec)
	wall, _, gcFrac := ph.end()
	if err != nil {
		return nil, fmt.Errorf("%s traced segment: %w", sp.name, err)
	}
	after := obs.Default().Snapshot()

	out := make(map[string]float64)
	for k, v := range tr.raw {
		out[k] = v
	}
	counterLayers(before, after, wall, out)
	out["runtime.gc_cpu_frac"] = gcFrac
	in, err := fx.inputs()
	if err == nil {
		err = replayLayers(ctx, rec, in, seg, sz.replayRounds, out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s layer replay: %w", sp.name, err)
	}
	deriveLayers(plain.raw, out)
	if plain.ops > 0 && tr.ops > 0 {
		a, b := plain.busy.Seconds()/plain.ops, tr.busy.Seconds()/tr.ops
		out["bench.trace_overhead_frac"] = (b - a) / a
	}

	rep := &report{
		attempted: plain.attempted + tr.attempted,
		failed:    plain.failed + tr.failed,
		checks:    fx.check(ctx),
	}
	for _, m := range perLayer {
		rep.metrics = append(rep.metrics, value{m.Name, m.Unit, out[m.Name], 0})
	}
	path, err := rec.write(traceDir, sp.name, seed)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return rep, nil
}

// counterLayers turns deltas of the leader's exported counters over the
// traced segment into layer metrics.
func counterLayers(before, after map[string]float64, wall time.Duration, out map[string]float64) {
	delta := func(k string) float64 { return after[k] - before[k] }
	repSum, repCount := delta("rr_online_republish_seconds_sum"), delta("rr_online_republish_seconds_count")
	out["online.republish_busy_frac"] = repSum / wall.Seconds()
	if repCount > 0 {
		out["live.republish_ms"] = repSum / repCount * 1e3
	}
	hits, misses := delta("rr_fill_cache_hits_total"), delta("rr_fill_cache_misses_total")
	if gates := delta("rr_online_ge_gate_seconds_count"); gates > 0 {
		out["core.ge_plan_builds"] = misses / gates
	}
	if hits+misses > 0 {
		out["core.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	out["core.plan_cache_evictions"] = delta("rr_fill_cache_evictions_total")
	promoted, rejected := delta("rr_online_promotions_total"), delta("rr_online_ge_gate_rejections_total")
	if promoted+rejected > 0 {
		out["online.promote_ratio"] = promoted / (promoted + rejected)
	}
}

// deriveLayers computes what is left to the server once the timed
// layers are taken out of what the client saw in the untraced segment.
func deriveLayers(client map[string]float64, out map[string]float64) {
	if v, ok := client["client.ingest_us_per_row"]; ok {
		out["server.ingest_self_us_per_row"] = v - out["online.push_contended_us_per_row"]
	}
	if v, ok := client["client.fill_p50_ms"]; ok {
		out["server.fill_self_ms"] = v - out["core.fill_ms"] - out["store.get_us"]/1e3
	}
	if v, ok := client["client.batch_us_per_row"]; ok {
		out["server.batch_self_us_per_row"] = v - out["core.batch_fill_us_per_row"]
	}
	// The live republish (leader histogram) already holds the commit.
	if v, ok := client["client.visible_p50_ms"]; ok {
		out["online.wake_ms"] = v - out["live.republish_ms"] - out["replica.apply_ms"]
	}
}

// printReport prints every metric with its unit, the checks, and the
// final JSON line; it reports whether the run was correct.
func printReport(w io.Writer, rep *report) bool {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	line := func(v value, prefix string) {
		fmt.Fprintf(bw, "%s%-36s %16.6g %-6s", prefix, v.name, v.v, v.unit)
		if v.n > 0 {
			fmt.Fprintf(bw, " (n=%d)", v.n)
		}
		fmt.Fprintln(bw)
	}
	for _, v := range rep.metrics {
		line(v, "")
	}
	for _, v := range rep.aliases {
		line(v, "  = ")
	}
	correct := rep.failed == 0
	for _, c := range rep.checks {
		verdict := "ok"
		if !c.ok {
			verdict, correct = "FAIL", false
		}
		fmt.Fprintf(bw, "check %-34s %s %s\n", c.name, verdict, c.info)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(bw, "#", n)
	}
	fmt.Fprintf(bw, "ops attempted=%d failed=%d\n", rep.attempted, rep.failed)
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jv, len(rep.metrics))
	for _, v := range rep.metrics {
		metrics[v.name] = jv{v.v, v.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics})
	bw.Write(out)
	bw.WriteByte('\n')
	return correct
}

// envLine records what the run ran on.
func envLine(workload string, seed int64, traced int) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("# perfbench workload=%s seed=%d trace=%d gomaxprocs=%d nproc=%d go=%s commit=%s cpu=%q",
		workload, seed, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit, cpu)
}
