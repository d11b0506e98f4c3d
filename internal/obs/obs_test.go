package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestGetOrCreateIdentity pins the registration contract: the same
// name always yields the same instrument, and label variants are
// distinct series in one family.
func TestGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "things")
	b := r.Counter("x_total", "")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	l1 := r.Counter(`y_total{k="1"}`, "labeled")
	l2 := r.Counter(`y_total{k="2"}`, "")
	if l1 == l2 {
		t.Fatal("distinct label sets shared a counter")
	}
	l1.Add(3)
	l2.Inc()
	if l1.Value() != 3 || l2.Value() != 1 {
		t.Fatalf("values: %d, %d", l1.Value(), l2.Value())
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter/histogram family clash")
		}
	}()
	r := NewRegistry()
	r.Counter("clash_total", "")
	r.Histogram(`clash_total{k="v"}`, "", DurationBuckets)
}

// Count reads the number of observations so far.
func (h *Histogram) Count() uint64 { return h.snapshot().total }

// Sum reads the sum of observed values so far.
func (h *Histogram) Sum() float64 { return h.snapshot().sum }

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	snap := h.snapshot()
	// 0.05 and 0.1 land in le=0.1 (inclusive upper bound); 0.5 in le=1;
	// 2 in le=10; 100 in +Inf.
	want := []uint64{2, 3, 4}
	for i, w := range want {
		if snap.cum[i] != w {
			t.Fatalf("cum[%d]=%d want %d", i, snap.cum[i], w)
		}
	}
	if snap.total != 5 {
		t.Fatalf("total=%d", snap.total)
	}
	if h.Count() != 5 || h.Sum() != 102.65 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
}

// goldenExposition is the exact render the golden test pins: family
// ordering, HELP/TYPE placement, label handling, histogram expansion,
// and render-time samples all in one page.
const goldenExposition = `# HELP alerts_total alerts raised
# TYPE alerts_total counter
alerts_total{detector="blackhole-onset"} 4
alerts_total{detector="route-leak"} 1
# HELP batch_seconds shard batch latency
# TYPE batch_seconds histogram
batch_seconds_bucket{shard="0",le="0.25"} 1
batch_seconds_bucket{shard="0",le="0.5"} 2
batch_seconds_bucket{shard="0",le="+Inf"} 3
batch_seconds_sum{shard="0"} 1.25
batch_seconds_count{shard="0"} 3
# HELP ingested_total events accepted
# TYPE ingested_total counter
ingested_total 42
# HELP queue_depth live queue depth
# TYPE queue_depth gauge
queue_depth 7
# HELP tracked_prefixes prefixes with window state
# TYPE tracked_prefixes gauge
tracked_prefixes 19
`

// TestGoldenPrometheusRender pins the text exposition byte for byte.
func TestGoldenPrometheusRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingested_total", "events accepted").Add(42)
	r.Counter(`alerts_total{detector="blackhole-onset"}`, "alerts raised").Add(4)
	r.Counter(`alerts_total{detector="route-leak"}`, "").Inc()
	// Binary-exact observations so the rendered _sum is stable.
	h := r.Histogram(`batch_seconds{shard="0"}`, "shard batch latency", []float64{0.25, 0.5})
	h.Observe(0.125)
	h.Observe(0.375)
	h.Observe(0.75)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb, func(emit func(Sample)) {
		emit(Sample{Name: "queue_depth", Help: "live queue depth", Type: TypeGauge, Value: 7})
	}, func(emit func(Sample)) {
		emit(Sample{Name: "tracked_prefixes", Help: "prefixes with window state", Type: TypeGauge, Value: 19})
	}); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenExposition {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", sb.String(), goldenExposition)
	}
}

// TestRenderTimeSamplesBelongToOneRender pins that the registry keeps no
// trace of what a render was handed: samples appear in the render that
// collected them and in no later one.
func TestRenderTimeSamplesBelongToOneRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("kept_total", "").Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb, func(emit func(Sample)) {
		emit(Sample{Name: "ghost", Type: TypeGauge, Value: 1})
	})
	if !strings.Contains(sb.String(), "ghost 1") || !strings.Contains(sb.String(), "kept_total 1") {
		t.Fatalf("render lacks its samples:\n%s", sb.String())
	}
	sb.Reset()
	r.WritePrometheus(&sb)
	if strings.Contains(sb.String(), "ghost") || !strings.Contains(sb.String(), "kept_total 1") {
		t.Fatalf("a render without the collect function:\n%s", sb.String())
	}
}

// TestConcurrentScrapeAndWrite hammers renders against instrument
// writes and instrument creation; run under -race this is the
// registry's thread-safety proof.
func TestConcurrentScrapeAndWrite(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	h := r.Histogram("hot_seconds", "", DurationBuckets)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				if i%50 == 0 {
					r.Counter("hot_total", "").Inc()
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	if b.GoVersion == "" || b.GitSHA == "" {
		t.Fatalf("incomplete build info: %+v", b)
	}
	if b != BuildInfo() {
		t.Fatal("build info not cached")
	}
}

// TestHotPathAllocatesNothing pins, in a unit no machine changes, the
// price every instrumented event pays: incrementing a counter and
// observing into a histogram whose series already exist allocate
// nothing.
func TestHotPathAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "hot-path counter")
	h := r.Histogram("hot_seconds", "hot-path histogram", DurationBuckets)
	if n := testing.AllocsPerRun(1000, c.Inc); n != 0 {
		t.Errorf("Counter.Inc: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe: %v allocs, want 0", n)
	}
	if c.Value() != 1001 || h.Count() != 1001 {
		t.Fatalf("counter=%d histogram=%d after 1001 calls each", c.Value(), h.Count())
	}
}
