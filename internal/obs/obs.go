// Package obs is the repo's zero-dependency observability substrate: a
// metrics registry (counters, histograms with fixed bucket layouts)
// rendered in Prometheus text format together with render-time samples,
// plus lightweight span
// tracing (trace.go) for flight-recorder timing breakdowns, and the
// build-info plumbing (build.go) shared by suite provenance and the
// wormwatchd health endpoint.
//
// One instrumentation rule holds across the repo: library packages never
// take a registry.
//
//   - Process-wide instruments live on Default. A Counter is a single
//     atomic, cheap enough for a per-batch or per-run boundary; a
//     Histogram takes a per-histogram mutex per Observe, and every site
//     observes at batch granularity (one watch shard batch, one WAL
//     group commit, one simnet convergence run), never per event.
//   - Per-instance state that an engine already keeps (queue depths,
//     per-detector firing counts, sequence watermarks) is emitted by the
//     engine's own Collect method and rendered by the server that holds
//     the engine, passed to WritePrometheus or Handler at request time.
//     Nothing registers or unregisters: a closed engine stops rendering
//     because its server stops holding it. Every gauge in the repo is
//     one of these samples: there is no settable gauge instrument.
//
// Metrics are observational only: nothing in the repo branches on a
// metric value, so no report, tap stream or alert set depends on what
// is scraped (the determinism exemptions are documented in
// ARCHITECTURE.md, "Observability"). Counters that are worker-count
// invariant by construction (events ingested, alerts) are asserted
// invariant in tests; inherently racy ones (queue depth, batch timing)
// are explicitly exempt.
//
// Series names carry their labels Prometheus-style:
//
//	r.Counter(`watch_ingested_total`, "events accepted")
//	r.Counter(`simnet_runs_total{engine="delta"}`, "convergence runs")
//
// Instruments are get-or-create: the same name always returns the same
// instrument, so package-level callers need no registration ceremony.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry, and the only one library code
// writes: simnet, gen and collector create their instruments here at
// package init, watch, semantics and durable when they build an
// instance, so a process that builds none (a frontend) does not list
// them. A binary hands Default to the server that serves /metrics.
var Default = NewRegistry()

// MetricType tags a family for the TYPE line of the text exposition.
type MetricType int

// Metric types.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

// String renders the Prometheus TYPE keyword.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Sample is one render-time measurement emitted by an engine's Collect:
// a full series name (labels included) with its current value. Help may
// be empty; the first non-empty help for a family wins.
type Sample struct {
	Name  string
	Help  string
	Type  MetricType
	Value float64
}

// Registry holds instruments. The zero value is not usable; create with
// NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	families map[string]family // family name -> type + help
}

type family struct {
	typ  MetricType
	help string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		families: make(map[string]family),
	}
}

// splitName separates a series name into its family and label portion:
// `foo{a="b"}` -> ("foo", `a="b"`). Names without labels return an
// empty label string.
func splitName(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// register records the family's type and help, failing loudly on a
// type clash — two call sites disagreeing on what a family is would
// otherwise render an unparseable exposition.
func (r *Registry) register(name string, typ MetricType, help string) {
	fam, _ := splitName(name)
	if f, ok := r.families[fam]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: family %s registered as both %s and %s", fam, f.typ, typ))
		}
		if f.help == "" && help != "" {
			r.families[fam] = family{typ: typ, help: help}
		}
		return
	}
	r.families[fam] = family{typ: typ, help: help}
}

// Counter returns the monotone counter registered under name (labels
// included), creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		r.register(name, TypeCounter, help)
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (ascending; +Inf is implicit) on
// first use. Later calls return the existing histogram regardless of
// the buckets argument — bucket layouts are fixed at first
// registration, which is what keeps pane-of-glass dashboards stable.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		r.register(name, TypeHistogram, help)
		h = newHistogram(buckets)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotone uint64. The zero value is usable but callers
// normally obtain one from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram counts observations into fixed buckets. Observe takes the
// histogram's mutex, which also makes scrape-time snapshots exact:
// bucket counts, sum, and count are always mutually consistent.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1, last is the +Inf bucket
	sum    float64
	total  uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %v", bounds[i]))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// ObserveSince records the seconds elapsed since start — the idiom for
// batch-latency and convergence-wall-time sites.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// histSnapshot is one consistent read of the histogram.
type histSnapshot struct {
	bounds []float64
	cum    []uint64 // cumulative per bound, then total at +Inf
	sum    float64
	total  uint64
}

func (h *Histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := histSnapshot{bounds: h.bounds, sum: h.sum, total: h.total}
	s.cum = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		s.cum[i] = run
	}
	return s
}

// DurationBuckets is the fixed layout for wall-time histograms, in
// seconds: 100µs to 60s, roughly 2.5x steps. Every duration histogram
// in the repo uses it, so panes line up across subsystems.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}
