package obs

import (
	"math"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A test counter.")
	if got := c.Value(); got != 0 {
		t.Fatalf("fresh counter = %v, want 0", got)
	}
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Idempotent registration returns the same instance.
	if again := r.Counter("test_total", "A test counter."); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "A test gauge.")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "A test histogram.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-55.65) > 1e-9 {
		t.Fatalf("sum = %v, want 55.65", got)
	}
	bounds, cum := h.Buckets()
	wantBounds := []float64{0.1, 1, 10, math.Inf(1)}
	wantCum := []uint64{2, 3, 4, 5} // le is inclusive: 0.1 falls in the first bucket
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] || cum[i] != wantCum[i] {
			t.Fatalf("bucket %d = (%v, %d), want (%v, %d)",
				i, bounds[i], cum[i], wantBounds[i], wantCum[i])
		}
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops_total", "Ops.", "op", "result")
	v.With("fill", "ok").Add(3)
	v.With("fill", "error").Inc()
	v.With("fill", "ok").Inc() // same child again
	if got := v.With("fill", "ok").Value(); got != 4 {
		t.Fatalf(`With("fill","ok") = %v, want 4`, got)
	}
	if got := v.With("fill", "error").Value(); got != 1 {
		t.Fatalf(`With("fill","error") = %v, want 1`, got)
	}
}

func TestRegisterMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "first")
	for name, f := range map[string]func(){
		"type change":  func() { r.Gauge("dup", "as gauge") },
		"label change": func() { r.CounterVec("dup", "with labels", "x") },
		"bad name":     func() { r.Counter("bad-name", "dash") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWithWrongArity(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("labeled", "two labels", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestSnapshotKeys(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "plain").Add(2)
	r.CounterVec("labeled_total", "labeled", "b", "a").With("vb", "va").Add(7)
	r.Histogram("hist_seconds", "hist", []float64{1}).Observe(0.5)

	snap := r.Snapshot()
	for key, want := range map[string]float64{
		"plain_total": 2,
		// Snapshot keys sort label names regardless of declaration order.
		`labeled_total{a="va",b="vb"}`: 7,
		"hist_seconds_sum":             0.5,
		"hist_seconds_count":           1,
	} {
		if got := snap[key]; got != want {
			t.Errorf("snapshot[%s] = %v, want %v (have keys %v)", key, got, want, snap)
		}
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}

func TestDefaultIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() returned different registries")
	}
}

// TestVecLookupAllocs: a warmed labeled lookup allocates nothing. Batch
// fill looks its row counter up once per row and the HTTP middleware
// once per request, so a key built on the heap would cost every row.
func TestVecLookupAllocs(t *testing.T) {
	r := NewRegistry()
	one := r.CounterVec("one_total", "h", "a")
	two := r.CounterVec("two_total", "h", "a", "b")
	three := r.HistogramVec("three_seconds", "h", DefBuckets, "a", "b", "c")
	lookups := []struct {
		labels int
		fn     func()
	}{
		{1, func() { one.With("fill").Inc() }},
		{2, func() { two.With("fill", "ok").Inc() }},
		{3, func() { three.With("POST", "/v1/rules/{name}/batch/fill", "200").Observe(0.001) }},
	}
	for _, l := range lookups {
		l.fn() // creates the child: the one allocation a label set costs
		if n := testing.AllocsPerRun(100, l.fn); n != 0 {
			t.Errorf("%d-label lookup: %v allocs per warmed call, want 0", l.labels, n)
		}
	}
}
