package semantics

import (
	"sync"
	"sync/atomic"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/obs"
)

// Config is empty: the engine has nothing to configure. It stays because
// the frozen benchmark (bench/trace.go) names it.
type Config struct{}

// logicalBase / logicalTick anchor the synthesized clock for clockless
// feeds (the same nominal month the generator and watch engine use).
var logicalBase = time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)

const logicalTick = 37 * time.Millisecond

// Partial is one partial dictionary: the evidence folded so far by one
// producer. A producer that already batches on a goroutine of its own —
// a watch shard worker — takes one from NewPartial and folds its batches
// into it there; the engine merges every partial when asked for a
// Snapshot. Fold may run concurrently with Fold on other partials and
// with Snapshot.
type Partial struct {
	e   *Engine
	mu  sync.Mutex
	acc map[bgp.Community]*evidence
}

// Engine is the dictionary-inference engine: a set of partial
// dictionaries and the commutative merge that classifies them. It runs
// no goroutine and queues nothing — an event is folded by the time
// Ingest or Fold returns. Create with NewEngine; feed with Ingest (the
// engine's own partial, for single-producer callers: pass it to
// feed.StreamMRT or feed.Tap) or Fold on partials handed out by
// NewPartial; read with Snapshot at any time.
type Engine struct {
	own *Partial // Ingest and RestoreState land here

	mu       sync.Mutex // guards partials, which only grows
	partials []*Partial

	closed atomic.Bool
	// seq counts observations folded through any partial; Ingest stamps
	// unsequenced observations from it.
	seq     atomic.Uint64
	version atomic.Uint64
	merges  atomic.Uint64

	foldHist *obs.Histogram // process-wide, shared by every engine

	snapMu sync.Mutex
	snap   *Snapshot
}

// NewEngine returns an empty engine.
func NewEngine(Config) *Engine {
	e := &Engine{foldHist: obs.Default.Histogram("semantics_fold_seconds",
		"partial fold-batch latency", obs.DurationBuckets)}
	e.own = e.NewPartial()
	return e
}

// Collect emits the engine's per-instance series for the server that
// holds it. It reads only atomics — never Snapshot or Stats, which take
// every partial's lock — so a scrape never waits on a fold.
func (e *Engine) Collect(emit func(obs.Sample)) {
	counter := func(name, help string, v uint64) {
		emit(obs.Sample{Name: name, Help: help, Type: obs.TypeCounter, Value: float64(v)})
	}
	// Folding is inline, so accepted and folded are one count.
	n := e.seq.Load()
	counter("semantics_ingested_total", "observations accepted for folding", n)
	counter("semantics_processed_total", "observations folded into a partial", n)
	counter("semantics_merges_total", "snapshot merges of the partials", e.merges.Load())
}

// NewPartial registers and returns a new empty partial dictionary.
func (e *Engine) NewPartial() *Partial {
	p := &Partial{e: e, acc: make(map[bgp.Community]*evidence)}
	e.mu.Lock()
	e.partials = append(e.partials, p)
	e.mu.Unlock()
	return p
}

// Fold folds a batch of events into the partial under one lock. Every
// event must carry its Seq and Time (the watch engine stamps both);
// those without communities — withdrawals among them — fold nothing and
// are not counted, as in Ingest, and a batch of only those leaves the
// engine untouched. The slices an event points at are read, never kept.
// Fold after the engine's Close is a silent no-op, like Ingest.
func (p *Partial) Fold(batch []feed.Event) {
	e := p.e
	if len(batch) == 0 || e.closed.Load() {
		return
	}
	start := time.Now()
	n := uint64(0)
	p.mu.Lock()
	for i := range batch {
		if ev := &batch[i]; len(ev.Communities) > 0 {
			p.fold(ev)
			n++
		}
	}
	p.mu.Unlock()
	if n == 0 {
		return
	}
	e.foldHist.ObserveSince(start)
	e.seq.Add(n)
	e.version.Add(1)
}

// fold adds one event's evidence. Caller holds p.mu.
func (p *Partial) fold(ev *feed.Event) {
	for _, c := range ev.Communities {
		evd := p.acc[c]
		if evd == nil {
			evd = newEvidence()
			p.acc[c] = evd
		}
		evd.fold(ev, c)
	}
}

// Ingest folds one event into the engine's own partial, stamping Seq
// and Time when the feed left them zero. Withdrawals and community-free
// announcements fold nothing and are skipped before the lock. Ingest
// after Close is a silent no-op.
func (e *Engine) Ingest(ev feed.Event) {
	if len(ev.Communities) == 0 || e.closed.Load() {
		return
	}
	p := e.own
	p.mu.Lock()
	seq := e.seq.Add(1)
	if ev.Seq == 0 {
		ev.Seq = seq
	}
	if ev.Time.IsZero() {
		ev.Time = logicalBase.Add(time.Duration(ev.Seq) * logicalTick)
	}
	p.fold(&ev)
	p.mu.Unlock()
	e.version.Add(1)
}

// Flush does nothing: there is no pending work to wait for. It exists
// only because bench/trace.go, frozen between benchmark PRs, calls it.
func (e *Engine) Flush() {}

// Close marks the engine closed. Further Ingest and Fold calls are
// dropped; Snapshot stays valid.
func (e *Engine) Close() { e.closed.Store(true) }

// merged merges every partial's evidence into one fresh map.
func (e *Engine) merged() map[bgp.Community]*evidence {
	e.mu.Lock()
	partials := e.partials
	e.mu.Unlock()
	merged := make(map[bgp.Community]*evidence)
	for _, p := range partials {
		p.mu.Lock()
		for c, ev := range p.acc {
			m := merged[c]
			if m == nil {
				m = newEvidence()
				merged[c] = m
			}
			m.merge(ev)
		}
		p.mu.Unlock()
	}
	return merged
}

// Snapshot merges every partial dictionary, classifies each entry in
// the same pass, and returns the immutable result. The snapshot is
// bit-identical however the stream was split over partials (every fold
// is commutative); repeated calls at an unchanged version return the
// cached snapshot.
func (e *Engine) Snapshot() *Snapshot {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	// Read before merging: a fold bumps the version after it unlocks its
	// partial, so the merge holds at least everything v counts.
	v := e.version.Load()
	if e.snap != nil && e.snap.Version == v {
		return e.snap
	}
	e.merges.Add(1)
	merged := e.merged()
	entries := make(map[bgp.Community]*Entry, len(merged))
	for c, ev := range merged {
		entries[c] = ev.entry(c)
	}
	e.snap = newSnapshot(v, e.seq.Load(), entries)
	return e.snap
}

// Stats is the engine's operational snapshot. Ingested and Processed
// are the same count — folding is inline — and both stay for the
// /dict/stats consumers that read either.
type Stats struct {
	Ingested    uint64         `json:"ingested"`
	Processed   uint64         `json:"processed"`
	Communities int            `json:"communities"`
	ASes        int            `json:"ases"`
	ByClass     map[string]int `json:"by_class"`
	Version     uint64         `json:"version"`
}

// Stats reports counters plus dictionary shape (it takes a snapshot,
// reusing the cache when nothing changed).
func (e *Engine) Stats() Stats {
	return e.StatsOf(e.Snapshot())
}

// StatsOf reports the live counters against the shape of an existing
// snapshot, without re-merging — the daemon serves its heartbeat
// snapshot this way, so /dict/stats never contends with ingest.
func (e *Engine) StatsOf(s *Snapshot) Stats {
	n := e.seq.Load()
	return Stats{
		Ingested:    n,
		Processed:   n,
		Communities: s.Len(),
		ASes:        len(s.ASNs()),
		ByClass:     s.ByClass(),
		Version:     s.Version,
	}
}

// Holder is an atomically swapped snapshot cell: a live daemon stores
// fresh snapshots on a heartbeat while detectors read the current one
// lock-free. A nil or empty holder looks like an empty dictionary.
type Holder struct {
	p atomic.Pointer[Snapshot]
}

// Store publishes a snapshot.
func (h *Holder) Store(s *Snapshot) { h.p.Store(s) }

// Load returns the current snapshot (nil before the first Store).
func (h *Holder) Load() *Snapshot { return h.p.Load() }

// Lookup implements Provider over the current snapshot.
func (h *Holder) Lookup(c bgp.Community) (*Entry, bool) {
	if s := h.p.Load(); s != nil {
		return s.Lookup(c)
	}
	return nil, false
}
