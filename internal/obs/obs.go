// Package obs is the observability layer of the Ratio Rules system:
// a dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text exposition, timing helpers for the
// mining hot paths, and structured logging built on log/slog.
//
// The package holds a process-wide Default registry that the miner
// (internal/core) and the HTTP service (internal/server) record into;
// tests that need isolation construct their own Registry and read it
// back with Snapshot or Gather. Everything is safe for concurrent use:
// metric updates are single atomic operations, and scrapes may run
// while recorders are hot.
//
// Naming follows the Prometheus conventions: all metrics carry the
// `rr_` prefix, durations are `_seconds`, monotonic counts are
// `_total`, and label cardinality stays bounded (routes, phases, op
// names and status classes only — never user input).
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// metricKind discriminates the registered metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry is a concurrency-safe collection of metric families.
// The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	collectorMu sync.Mutex
	collectors  []func()
	runtimeOnce sync.Once // RegisterRuntime idempotency
}

// family is one named metric with a fixed type and label scheme; its
// children are the per-label-value instances.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64 // histogram families only

	mu       sync.RWMutex
	children map[string]*child // keyed by joined label values
}

type child struct {
	labelValues []string
	metric      any // *Counter, *Gauge or *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry used by the miner and
// the HTTP middleware unless a caller supplies its own.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// register fetches or creates a family, panicking on a name collision
// with a different type or label scheme — that is a programming error,
// caught the first time the code path runs.
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labelNames, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labelNames))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labels...),
		children:   make(map[string]*child),
	}
	if kind == kindHistogram {
		f.buckets = validateBuckets(buckets)
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// labelSep joins label values into child keys; it cannot appear in
// UTF-8 text, so joined keys are unambiguous.
const labelSep = "\xff"

// with fetches or creates the child for the given label values.
func (f *family) with(values []string) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q got %d label values for %d labels",
			f.name, len(values), len(f.labelNames)))
	}
	// The key is built on the stack and looked up as string(key), which
	// does not allocate: only creating a child copies it to the heap.
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, labelSep...)
		}
		key = append(key, v...)
	}
	f.mu.RLock()
	c, ok := f.children[string(key)]
	f.mu.RUnlock()
	if ok {
		return c.metric
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[string(key)]; ok {
		return c.metric
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.buckets)
	}
	f.children[string(key)] = &child{
		labelValues: append([]string(nil), values...),
		metric:      m,
	}
	return m
}

// sortedChildren snapshots the children in deterministic (sorted key)
// order for exposition.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	return out
}

// RegisterCollector adds a function run at the start of every scrape
// (WritePrometheus, Gather, Snapshot) — the hook for gauges whose value
// is sampled on demand rather than recorded at event time, like the
// Go runtime stats (see RegisterRuntime). Collectors must be fast and
// must not scrape the registry themselves.
func (r *Registry) RegisterCollector(fn func()) {
	r.collectorMu.Lock()
	r.collectors = append(r.collectors, fn)
	r.collectorMu.Unlock()
}

// runCollectors invokes every registered collector.
func (r *Registry) runCollectors() {
	r.collectorMu.Lock()
	fns := append([]func(){}, r.collectors...)
	r.collectorMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// sortedFamilies snapshots the families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*family, len(names))
	for i, n := range names {
		out[i] = r.families[n]
	}
	return out
}

// Counter returns the registered unlabeled counter, creating it if
// needed. Registration is idempotent: every call with the same name
// returns the same instance.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).with(nil).(*Counter)
}

// Gauge returns the registered unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).with(nil).(*Gauge)
}

// Histogram returns the registered unlabeled histogram with the given
// ascending bucket upper bounds (a trailing +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, buckets).with(nil).(*Histogram)
}

// CounterVec returns the registered counter family with the given
// label names; fetch children with With.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// GaugeVec returns the registered gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// HistogramVec returns the registered histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, buckets)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label
// name, in registration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).(*Counter) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.with(values).(*Gauge) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).(*Histogram) }
