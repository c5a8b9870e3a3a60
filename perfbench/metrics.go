package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract; bench_test.go pins them against
// BENCHMARK.json.
type metricDef struct{ Name, Unit string }

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"mine", "ingest", "republish", "serve"}

// endToEnd is what an untraced run reports on every workload. The
// workload decides what an op is (see README.md): mined rows, acked
// rows, republish cycles, or batch-filled rows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// perLayer is what a traced run reports on every workload. Layers are
// named after the repository's packages. A layer the workload does not
// cross reads 0.
var perLayer = []metricDef{
	{"stats.push_ns_per_cell", "ns"},
	{"stats.scatter_ms", "ms"},
	{"eigen.solve_ms", "ms"},
	{"core.mine_self_ms", "ms"},
	{"core.mine_allocs", "count"},
	{"online.push_us_per_row", "us"},
	{"online.push_contended_us_per_row", "us"},
	{"online.push_allocs_per_row", "count"},
	{"server.ingest_self_us_per_row", "us"},
	{"online.republish_busy_frac", "ratio"},
	{"online.republish_ms", "ms"},
	{"online.snapshot_ms", "ms"},
	{"core.stream_rules_ms", "ms"},
	{"core.ge_gate_ms", "ms"},
	{"core.ge_plan_builds", "count"},
	{"store.commit_ms", "ms"},
	{"replica.apply_ms", "ms"},
	{"online.wake_ms", "ms"},
	{"online.promote_ratio", "ratio"},
	{"core.fill_ms", "ms"},
	{"core.fill_solve_us", "us"},
	{"core.batch_fill_us_per_row", "us"},
	{"core.plan_cache_hit_ratio", "ratio"},
	{"core.plan_cache_evictions", "count"},
	{"store.get_us", "us"},
	{"server.fill_self_ms", "ms"},
	{"server.batch_self_us_per_row", "us"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// phase measures what the runtime did while a workload's measured
// phase ran: wall time, the peak of the live Go heap (as marked by each
// garbage collection, sampled), and the share of available CPU the
// garbage collector took. The live heap, unlike the heap including
// not-yet-collected garbage, does not depend on when collections ran.
type phase struct {
	start      time.Time
	gc0, cpu0  float64
	stop, done chan struct{}
	peak       uint64
}

const (
	heapLive = "/gc/heap/live:bytes"
	gcCPU    = "/cpu/classes/gc/total:cpu-seconds"
	totalCPU = "/cpu/classes/total:cpu-seconds"
)

func readRuntime() (heap uint64, gc, cpu float64) {
	s := []metrics.Sample{{Name: heapLive}, {Name: gcCPU}, {Name: totalCPU}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

// beginPhase starts the heap sampler; end stops it and waits for it.
func beginPhase() *phase {
	p := &phase{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	p.peak, p.gc0, p.cpu0 = readRuntime()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if h, _, _ := readRuntime(); h > p.peak {
					p.peak = h
				}
			}
		}
	}()
	return p
}

// end reports the phase's wall time, heap peak in MiB and GC CPU share.
func (p *phase) end() (wall time.Duration, heapMB, gcFrac float64) {
	wall = time.Since(p.start)
	close(p.stop)
	<-p.done
	h, gc, cpu := readRuntime()
	if h > p.peak {
		p.peak = h
	}
	if cpu > p.cpu0 {
		gcFrac = (gc - p.gc0) / (cpu - p.cpu0)
	}
	return wall, float64(p.peak) / (1 << 20), gcFrac
}
