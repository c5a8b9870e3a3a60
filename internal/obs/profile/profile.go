// Package profile is the always-on continuous profiler: a background
// loop takes periodic short CPU captures and heap/goroutine snapshots
// and retains them in a bounded in-process ring, the profiling
// equivalent of the trace flight recorder. When the 3am republish was
// slow, GET /debug/profiles (internal/server) still holds the pprof
// blobs that cover it — no -debug-addr needed in advance, no external
// agent.
//
// Overhead is bounded by construction: the CPU profiler runs
// CPUDuration out of every Interval (50ms/min by default at the
// rrserve flags, a ~0.08% duty cycle), snapshots are two pprof.Lookup
// writes per cycle, and the ring
// evicts oldest-first under both an entry cap and a byte cap, so
// retention can never grow with uptime.
package profile

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"ratiorules/internal/obs"
)

// Capture kinds.
const (
	KindCPU       = "cpu"
	KindHeap      = "heap"
	KindGoroutine = "goroutine"
)

// Defaults for Config zero values.
const (
	DefaultInterval    = time.Minute
	DefaultCPUDuration = 2 * time.Second
	DefaultMaxEntries  = 64
	DefaultMaxBytes    = 8 << 20
)

// Config tunes a Ring. The zero value selects the defaults above.
type Config struct {
	// Interval is the capture-cycle cadence (rrserve -profile-every).
	Interval time.Duration
	// CPUDuration is how long each cycle's CPU capture runs; 0 disables
	// CPU captures (snapshots still run). It is clamped to Interval/2 so
	// a misconfigured ring can never profile back-to-back.
	CPUDuration time.Duration
	// MaxEntries bounds retained captures; oldest evict first.
	MaxEntries int
	// MaxBytes bounds the summed size of retained pprof blobs.
	MaxBytes int64
	// Logger receives capture-failure lines; nil uses slog.Default.
	Logger *slog.Logger
	// Metrics registers the rr_profile_* meta-metrics when non-nil.
	Metrics *obs.Registry
}

// Entry describes one retained capture; the pprof blob itself comes
// from Get.
type Entry struct {
	ID    int       `json:"id"`
	Kind  string    `json:"kind"`
	Start time.Time `json:"start"`
	// DurationMS is the CPU capture window (0 for snapshots).
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Bytes is the pprof blob size.
	Bytes int `json:"bytes"`
	// Snapshot deltas: heap allocation and goroutine count movement
	// since the previous snapshot of the same kind, so a leak trends
	// visibly in the listing without fetching blobs.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes,omitempty"`
	HeapDeltaBytes int64  `json:"heap_delta_bytes,omitempty"`
	Goroutines     int    `json:"goroutines,omitempty"`
	GoroutineDelta int    `json:"goroutine_delta,omitempty"`
}

// entry pairs the listing row with its blob.
type entry struct {
	Entry
	data []byte
}

// Ring is the bounded capture store plus the capture loop. A Ring built
// by New is passive — it serves an empty listing — until Run starts the
// loop; internal/server always mounts the /debug/profiles routes over
// whatever ring it is given, and rrserve decides whether it runs.
type Ring struct {
	interval time.Duration
	cpuDur   time.Duration
	maxN     int
	maxBytes int64
	logger   *slog.Logger

	mu         sync.Mutex
	entries    []*entry
	nextID     int
	totalBytes int64
	lastHeap   map[string]uint64 // kind -> last absolute value, for deltas
	lastGoro   int
	haveGoro   bool

	captures *obs.CounterVec // kind
	errors   *obs.Counter
	evicted  *obs.Counter
}

// New builds a passive Ring; call Run to start capturing.
func New(cfg Config) *Ring {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.CPUDuration < 0 {
		cfg.CPUDuration = 0
	}
	if cfg.CPUDuration == 0 {
		cfg.CPUDuration = DefaultCPUDuration
	}
	if cfg.CPUDuration > cfg.Interval/2 {
		cfg.CPUDuration = cfg.Interval / 2
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	r := &Ring{
		interval: cfg.Interval,
		cpuDur:   cfg.CPUDuration,
		maxN:     cfg.MaxEntries,
		maxBytes: cfg.MaxBytes,
		logger:   cfg.Logger,
		lastHeap: make(map[string]uint64),
	}
	if reg := cfg.Metrics; reg != nil {
		r.captures = reg.CounterVec("rr_profile_captures_total",
			"Profile captures retained, by kind.", "kind")
		r.errors = reg.Counter("rr_profile_capture_errors_total",
			"Profile captures that failed (e.g. CPU profiler already running).")
		r.evicted = reg.Counter("rr_profile_evictions_total",
			"Captures evicted from the ring by the entry or byte bound.")
		ringBytes := reg.Gauge("rr_profile_ring_bytes",
			"Summed size of retained pprof blobs.")
		ringEntries := reg.Gauge("rr_profile_ring_entries",
			"Captures currently retained.")
		reg.RegisterCollector(func() {
			r.mu.Lock()
			ringBytes.Set(float64(r.totalBytes))
			ringEntries.Set(float64(len(r.entries)))
			r.mu.Unlock()
		})
	}
	return r
}

// Interval returns the capture cadence (for the /debug/profiles
// listing, so an operator can see the knobs in effect).
func (r *Ring) Interval() time.Duration { return r.interval }

// CPUDuration returns the per-cycle CPU capture window.
func (r *Ring) CPUDuration() time.Duration { return r.cpuDur }

// Run drives capture cycles until ctx is cancelled: one heap +
// goroutine snapshot pair and one short CPU capture per Interval. It
// takes an immediate first snapshot so the ring is useful seconds after
// boot, not one interval later.
func (r *Ring) Run(ctx context.Context) {
	r.CaptureSnapshots()
	tick := time.NewTicker(r.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if r.cpuDur > 0 {
			if err := r.CaptureCPU(ctx); err != nil && ctx.Err() == nil {
				if r.errors != nil {
					r.errors.Inc()
				}
				r.logger.Warn("cpu profile capture failed", "error", err)
			}
		}
		if ctx.Err() != nil {
			return
		}
		r.CaptureSnapshots()
	}
}

// CaptureCPU runs one CPU capture of the configured duration and
// retains the blob. It fails when another CPU profile is active (the
// runtime allows one at a time — e.g. an operator-driven
// /debug/pprof/profile on the side listener wins).
func (r *Ring) CaptureCPU(ctx context.Context) error {
	var buf bytes.Buffer
	start := time.Now()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("profile: start cpu: %w", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(r.cpuDur):
	}
	pprof.StopCPUProfile()
	r.add(&entry{Entry: Entry{
		Kind:       KindCPU,
		Start:      start,
		DurationMS: float64(time.Since(start)) / 1e6,
	}, data: append([]byte(nil), buf.Bytes()...)})
	return nil
}

// CaptureSnapshots retains one heap and one goroutine snapshot with
// deltas against the previous pair.
func (r *Ring) CaptureSnapshots() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	goro := runtime.NumGoroutine()
	for _, kind := range []string{KindHeap, KindGoroutine} {
		p := pprof.Lookup(kind)
		if p == nil {
			continue
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, 0); err != nil {
			if r.errors != nil {
				r.errors.Inc()
			}
			r.logger.Warn("profile snapshot failed", "kind", kind, "error", err)
			continue
		}
		e := &entry{Entry: Entry{Kind: kind, Start: time.Now()}, data: buf.Bytes()}
		r.mu.Lock()
		switch kind {
		case KindHeap:
			e.HeapAllocBytes = ms.HeapAlloc
			if prev, ok := r.lastHeap[kind]; ok {
				e.HeapDeltaBytes = int64(ms.HeapAlloc) - int64(prev)
			}
			r.lastHeap[kind] = ms.HeapAlloc
		case KindGoroutine:
			e.Goroutines = goro
			if r.haveGoro {
				e.GoroutineDelta = goro - r.lastGoro
			}
			r.lastGoro, r.haveGoro = goro, true
		}
		r.mu.Unlock()
		r.add(e)
	}
}

// add retains one capture, evicting oldest-first past either bound.
func (r *Ring) add(e *entry) {
	r.mu.Lock()
	r.nextID++
	e.Entry.ID = r.nextID
	e.Bytes = len(e.data)
	r.entries = append(r.entries, e)
	r.totalBytes += int64(len(e.data))
	evictions := 0
	for len(r.entries) > r.maxN || (r.totalBytes > r.maxBytes && len(r.entries) > 1) {
		victim := r.entries[0]
		r.entries = r.entries[1:]
		r.totalBytes -= int64(len(victim.data))
		evictions++
	}
	r.mu.Unlock()
	if r.captures != nil {
		r.captures.With(e.Kind).Inc()
	}
	if evictions > 0 && r.evicted != nil {
		r.evicted.Add(float64(evictions))
	}
}

// List returns the retained captures, oldest first.
func (r *Ring) List() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Entry
	}
	return out
}

// Get returns one capture's metadata and pprof blob by ID.
func (r *Ring) Get(id int) (Entry, []byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.Entry.ID == id {
			return e.Entry, e.data, true
		}
	}
	return Entry{}, nil, false
}

// Len reports the retained capture count.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// TotalBytes reports the summed retained blob size.
func (r *Ring) TotalBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totalBytes
}
