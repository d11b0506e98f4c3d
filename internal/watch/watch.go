// Package watch is the online streaming detection subsystem: it ingests
// a live BGP update feed and answers queries while ingesting, the
// CommunityWatch direction (Giotsas, 2018) layered on this repo's attack
// lab. Where internal/core is batch — a month of updates in, the §4
// figures out — watch maintains per-prefix sliding-window state in
// prefix-sharded ring buffers and runs a registry of detectors over
// every observation as it arrives: blackhole-community onset, community
// squatting, propagation-distance spikes, and route-leak signatures.
//
// The engine consumes the one routing record, feed.Event, from whatever
// makes one: feed.StreamMRT over MRT archives and feed sockets, feed.Tap
// over a simulated network, the durable store's journal on replay. With
// Config.Semantics set, each shard also folds its batches, as they are,
// into a partial dictionary. eval.go closes the loop with scenario
// ground truth, replaying a registered attack through the engine and
// scoring each detector's precision and recall.
//
// The engine shares the repo's two load-bearing disciplines:
//
//   - prefix sharding (the core.Pipeline shape): each prefix's state
//     lives wholly inside one shard and detectors read only that state,
//     so the alert set is bit-identical for any shard count
//     (TestWatchDeterminismAcrossShards);
//   - one lossless way in: Ingest. A full shard queue is the
//     back-pressure — an MRT stream, a feed socket, a simnet run tapped
//     through feed.Tap(source, Ingest) waits for the engine and no event
//     is ever shed (see "Engine locking" on Engine).
package watch

import (
	"net/netip"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/obs"
	"bgpworms/internal/semantics"
)

// logicalBase anchors the synthesized clock for clockless feeds (the
// same nominal month the generator uses).
var logicalBase = time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)

// logicalTick is the synthesized inter-event spacing.
const logicalTick = 37 * time.Millisecond

// Config sizes the engine. The zero value is usable: every field has a
// default. Instrumentation is not configured: the engine observes its
// batch latency on obs.Default and emits the rest through Collect.
type Config struct {
	// Shards is the number of prefix shards, each with its own worker
	// goroutine and state map; 0 means one per available CPU. The alert
	// set is invariant to this knob.
	Shards int
	// WindowEvents caps the per-prefix ring buffer (default 32): the
	// window holds at most this many recent events.
	WindowEvents int
	// Window is the time horizon (default 15m): events older than the
	// newest arrival minus Window are evicted from the ring.
	Window time.Duration
	// MaxAlerts bounds retained alerts so a long-running daemon cannot
	// grow without limit (default 100000; negative = unlimited). When a
	// shard's share overflows, its oldest alerts are discarded and
	// counted in Stats.AlertsTruncated. Shard-count invariance of the
	// alert set holds as long as the cap is never hit.
	MaxAlerts int
	// Detectors overrides the detector list (default: every registered
	// detector, in name order, plus the dictionary-aware pair when Dict
	// is set).
	Detectors []Detector
	// Dict enables the dictionary-aware detectors (dict-squat,
	// unknown-action-community) bound to this provider. Pass a frozen
	// *semantics.Snapshot for deterministic alert sets, or a
	// *semantics.Holder a daemon refreshes while ingesting.
	Dict semantics.Provider
	// Semantics, when non-nil, builds dictionaries from the events the
	// detectors process: each shard holds one of the engine's partial
	// dictionaries, and its worker folds every batch's community-bearing
	// events into it right after the detectors have seen them, with the
	// sequence and timestamp this engine assigned. The dictionary
	// therefore sees exactly the events the detectors do and is complete
	// for everything before a Flush. The folds are order-insensitive, so
	// the dictionary is as shard-count invariant as the alert set.
	// Semantics and Dict are deliberately separate: a dictionary
	// consulted mid-build would make alerts depend on shard timing.
	Semantics *semantics.Engine
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.WindowEvents <= 0 {
		c.WindowEvents = 32
	}
	if c.Window <= 0 {
		c.Window = 15 * time.Minute
	}
	if c.MaxAlerts == 0 {
		c.MaxAlerts = 100000
	}
	if c.Detectors == nil {
		c.Detectors = Detectors()
		if c.Dict != nil {
			c.Detectors = append(c.Detectors, DictDetectors(c.Dict)...)
		}
	}
	return c
}

// batch is one unit of shard work: a run of events, or a flush token
// (ack non-nil) the worker closes once everything before it is applied.
type batch struct {
	events []feed.Event
	ack    chan struct{}
}

const (
	// batchSize caps a shard's pending run: a run that reaches it goes
	// to the shard worker at once. It bounds batch memory and amortises
	// the channel send; it is no latency floor, because shorter runs
	// leave whenever a feed drains (Dispatch) or a caller flushes.
	batchSize = 128
	// queueDepth is each shard's queue, in batches: enough to ride out a
	// worker's slow batch, so a producer that has to wait means the
	// engine is saturated, not bursty.
	queueDepth = 64
)

// shard owns a disjoint slice of the prefix space: its state map, its
// alerts, and one worker goroutine draining its queue. Queries lock mu
// and read while ingestion continues on the other shards.
type shard struct {
	ch chan batch // sent to and closed only under Engine.mu

	mu         sync.Mutex // workers and readers only; see "Engine locking"
	prefixes   map[netip.Prefix]*PrefixState
	alerts     []Alert
	byDetector map[string]uint64

	// emit plumbing, reused across events to keep the hot path
	// allocation-free.
	curEv  *feed.Event
	curDet Detector
	emit   func(Alert)

	// dict is the shard's partial dictionary (nil without
	// Config.Semantics). Only the worker goroutine touches it.
	dict *semantics.Partial
}

// Engine is the streaming detection engine. Create with NewEngine; feed
// with Ingest, directly or as the sink of feed.StreamMRT or feed.Tap;
// query Alerts, Stats, and PrefixInfo at any time, including mid-ingest.
//
// Engine locking: two locks, one order. Engine.mu is the ingest lock.
// It covers stamping the sequence, appending to the home shard's
// pending run and sending a run (or a flush token) into the shard's
// queue, so with any number of producers runs enter a queue in stamp
// order: per-shard FIFO is a property of the lock. A send that finds the
// queue full blocks holding Engine.mu — the back-pressure; it stalls
// every producer — which is safe because of one rule: shard workers, and
// the detectors and dictionary fold they run, never take Engine.mu, so
// the queue always drains. shard.mu guards one shard's windows and
// alerts; only its worker and readers (Alerts, Stats, PrefixInfo,
// ExportState, a scrape) take it, and nothing takes Engine.mu under it.
type Engine struct {
	cfg       Config
	detectors []Detector
	shards    []*shard
	wg        sync.WaitGroup
	batchPool sync.Pool

	mu      sync.Mutex // ingest path: seq, pending, closed, shard queue sends
	seq     uint64
	pending [][]feed.Event
	closed  bool // once set, every pending run is empty and every queue closed

	ingested  atomic.Uint64
	processed atomic.Uint64
	alerts    atomic.Uint64
	truncated atomic.Uint64
	version   atomic.Uint64

	batchHist *obs.Histogram // process-wide, shared by every engine
}

// NewEngine starts an engine with one worker goroutine per shard. Close
// releases them.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, detectors: cfg.Detectors,
		batchHist: obs.Default.Histogram("watch_batch_seconds",
			"shard batch apply latency", obs.DurationBuckets)}
	e.batchPool.New = func() any {
		buf := make([]feed.Event, 0, batchSize)
		return &buf
	}
	e.shards = make([]*shard, cfg.Shards)
	e.pending = make([][]feed.Event, cfg.Shards)
	for i := range e.shards {
		s := &shard{
			ch:         make(chan batch, queueDepth),
			prefixes:   make(map[netip.Prefix]*PrefixState),
			byDetector: make(map[string]uint64),
		}
		maxRetained := -1
		if cfg.MaxAlerts > 0 {
			maxRetained = cfg.MaxAlerts/cfg.Shards + 1
		}
		s.emit = func(a Alert) {
			ev := s.curEv
			a.Seq, a.Time, a.Prefix, a.PeerAS, a.Source = ev.Seq, ev.Time, ev.Prefix, ev.PeerAS, ev.Source
			if a.Origin == 0 {
				a.Origin = ev.Origin()
			}
			if a.Detector == "" {
				a.Detector = s.curDet.Name()
			}
			if maxRetained > 0 && len(s.alerts) >= maxRetained {
				// Shed the oldest half of this shard's share: the daemon
				// stays bounded, recent alerts stay queryable.
				drop := len(s.alerts) / 2
				s.alerts = append(s.alerts[:0], s.alerts[drop:]...)
				e.truncated.Add(uint64(drop))
			}
			s.alerts = append(s.alerts, a)
			s.byDetector[a.Detector]++
			e.alerts.Add(1)
		}
		if cfg.Semantics != nil {
			s.dict = cfg.Semantics.NewPartial()
		}
		e.pending[i] = *e.batchPool.Get().(*[]feed.Event)
		e.shards[i] = s
		e.wg.Add(1)
		go e.runShard(s)
	}
	return e
}

// Collect emits the engine's per-instance series, read from Stats and
// the shard queues, so it is as safe and as cheap as a /stats query.
// The server holding the engine renders them on its /metrics page.
func (e *Engine) Collect(emit func(obs.Sample)) {
	counter := func(name, help string, v uint64) {
		emit(obs.Sample{Name: name, Help: help, Type: obs.TypeCounter, Value: float64(v)})
	}
	gauge := func(name, help string, v float64) {
		emit(obs.Sample{Name: name, Help: help, Type: obs.TypeGauge, Value: v})
	}
	st := e.Stats()
	counter("watch_ingested_total", "events accepted for processing", st.Ingested)
	counter("watch_processed_total", "events applied by shard workers", st.Processed)
	counter("watch_alerts_total", "alerts raised across all detectors", st.Alerts)
	counter("watch_alerts_truncated_total", "old alerts discarded under the retention cap", st.AlertsTruncated)
	gauge("watch_pending_events", "events ingested but not yet applied", float64(st.Pending))
	gauge("watch_tracked_prefixes", "prefixes with live window state", float64(st.TrackedPrefixes))
	for det, v := range st.ByDetector {
		counter(`watch_detector_alerts_total{detector="`+det+`"}`,
			"alerts raised, by detector", v)
	}
	for i, s := range e.shards {
		gauge(`watch_shard_queue_depth{shard="`+strconv.Itoa(i)+`"}`,
			"batches queued per shard", float64(len(s.ch)))
	}
}

// shardOf maps a prefix to its home shard (FNV-1a over address+length,
// the hashing discipline collector.partialKeeps uses).
func (e *Engine) shardOf(p netip.Prefix) int {
	a := p.Addr().As16()
	h := uint32(2166136261)
	for _, b := range a {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(p.Bits())) * 16777619
	return int(h % uint32(len(e.shards)))
}

// Ingest feeds one event; it is the engine's only way in. An event that
// fills its home shard's pending run sends the run to the shard worker,
// and if that shard's queue is full the call — and every other producer
// — waits for the worker: back-pressure, never loss. The engine assigns
// Seq in call order: feed from a single goroutine (feed.StreamMRT and
// feed.Tap do) and the alert set is deterministic. Ingesting after Close
// is a silent no-op.
func (e *Engine) Ingest(ev feed.Event) {
	ev.Prefix = ev.Prefix.Masked()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if ev.Seq == 0 {
		e.seq++
		ev.Seq = e.seq
	} else if ev.Seq > e.seq {
		// Callers may pre-assign sequence numbers (the durable store and
		// the sharded daemon do, so restarts and shard unions keep the
		// global order); they must be monotone per engine.
		e.seq = ev.Seq
	}
	if ev.Time.IsZero() {
		ev.Time = logicalBase.Add(time.Duration(e.seq) * logicalTick)
	}
	si := e.shardOf(ev.Prefix)
	e.pending[si] = append(e.pending[si], ev)
	e.ingested.Add(1)
	if len(e.pending[si]) >= batchSize {
		e.sendLocked(si)
	}
}

// sendLocked hands shard si's pending run, if any, to the shard worker,
// blocking while the queue is full. The caller holds e.mu (see "Engine
// locking"); on a closed engine pending is empty, so nothing is sent.
func (e *Engine) sendLocked(si int) {
	if len(e.pending[si]) == 0 {
		return
	}
	e.shards[si].ch <- batch{events: e.pending[si]}
	e.pending[si] = *e.batchPool.Get().(*[]feed.Event)
}

// runShard is the per-shard worker: it applies batches in arrival order
// (per-shard FIFO is what makes per-prefix windows chronological).
func (e *Engine) runShard(s *shard) {
	defer e.wg.Done()
	for b := range s.ch {
		if len(b.events) > 0 {
			start := time.Now()
			s.mu.Lock()
			for i := range b.events {
				e.process(s, &b.events[i])
			}
			s.mu.Unlock()
			// The dictionary folds the batch as it is, before the batch
			// counts as processed, so a Flush covers it too.
			if s.dict != nil {
				s.dict.Fold(b.events)
			}
			e.batchHist.ObserveSince(start)
			e.processed.Add(uint64(len(b.events)))
			e.version.Add(1)
			buf := b.events[:0]
			e.batchPool.Put(&buf)
		}
		if b.ack != nil {
			close(b.ack)
		}
	}
}

// process runs every detector over the event against the prefix's
// window state (the window holds only *prior* events while detectors
// run), then folds the event into the window.
func (e *Engine) process(s *shard, ev *feed.Event) {
	st := s.prefixes[ev.Prefix]
	if st == nil {
		st = newPrefixState(e.cfg.WindowEvents)
		s.prefixes[ev.Prefix] = st
	}
	s.curEv = ev
	for _, d := range e.detectors {
		s.curDet = d
		d.Observe(st, ev, s.emit)
	}
	st.push(ev, e.cfg.Window)
}

// Dispatch hands every shard's pending run to its worker and returns
// without waiting for the runs to be applied: the call a feed makes when
// it has decoded everything that has arrived and its next read may block
// (feed.DrainReader), so a short run is not held back for the events that
// would have filled it. Runs leave exactly like full ones, so where a
// run is cut is unobservable in the alert set. With nothing pending it
// takes e.mu once and allocates nothing.
func (e *Engine) Dispatch() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for si := range e.shards {
		e.sendLocked(si)
	}
}

// Flush dispatches every pending run and blocks until all shards have
// applied everything ingested before the call: the ack tokens are queued
// under e.mu, behind everything stamped so far, and awaited outside it.
// On a closed engine it waits for the workers to finish what Close
// queued, so when Flush returns every accepted event is applied.
func (e *Engine) Flush() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	acks := make([]chan struct{}, len(e.shards))
	for si, s := range e.shards {
		e.sendLocked(si)
		acks[si] = make(chan struct{})
		s.ch <- batch{ack: acks[si]}
	}
	e.mu.Unlock()
	for _, a := range acks {
		<-a
	}
}

// Close drains everything pending, stops the shard workers, and marks
// the engine closed. Queries remain valid after Close; further ingest
// is a silent no-op.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		for si, s := range e.shards {
			e.sendLocked(si)
			close(s.ch)
		}
		e.closed = true
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// Version is a monotone snapshot token: it advances whenever queryable
// state (processed events, alerts) may have changed. HTTP servers key
// their render caches on it.
func (e *Engine) Version() uint64 { return e.version.Load() }

// Alerts snapshots every alert so far, ordered by ingest sequence of
// the triggering event (detector registration order breaks ties within
// one event). Safe to call while ingesting.
func (e *Engine) Alerts() []Alert {
	var out []Alert
	for _, s := range e.shards {
		s.mu.Lock()
		out = append(out, s.alerts...)
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Stats is the engine's operational snapshot.
type Stats struct {
	Ingested  uint64 `json:"ingested"`
	Processed uint64 `json:"processed"`
	// Dropped is always 0: ingest is lossless and nothing writes the
	// field. It stays because the frozen benchmark compiles against it
	// (bench/serving.go:369,451,620,779) and decodes it from /stats.
	Dropped uint64 `json:"dropped"`
	Pending uint64 `json:"pending"`
	Alerts  uint64 `json:"alerts"`
	// AlertsTruncated counts old alerts discarded under the retention
	// cap (Config.MaxAlerts).
	AlertsTruncated uint64            `json:"alerts_truncated"`
	TrackedPrefixes int               `json:"tracked_prefixes"`
	Shards          int               `json:"shards"`
	WindowEvents    int               `json:"window_events"`
	Window          string            `json:"window"`
	ByDetector      map[string]uint64 `json:"alerts_by_detector"`
	Version         uint64            `json:"version"`
}

// Stats snapshots the counters. Safe to call while ingesting.
func (e *Engine) Stats() Stats {
	st := Stats{
		Ingested:        e.ingested.Load(),
		Processed:       e.processed.Load(),
		Alerts:          e.alerts.Load(),
		AlertsTruncated: e.truncated.Load(),
		Shards:          len(e.shards),
		WindowEvents:    e.cfg.WindowEvents,
		Window:          e.cfg.Window.String(),
		ByDetector:      make(map[string]uint64),
		Version:         e.version.Load(),
	}
	if st.Ingested > st.Processed {
		st.Pending = st.Ingested - st.Processed
	}
	for _, s := range e.shards {
		s.mu.Lock()
		st.TrackedPrefixes += len(s.prefixes)
		for k, v := range s.byDetector {
			st.ByDetector[k] += v
		}
		s.mu.Unlock()
	}
	return st
}

// PrefixInfo is the queryable per-prefix view: current window summary
// plus every alert the prefix has raised.
type PrefixInfo struct {
	Prefix netip.Prefix `json:"prefix"`
	// WindowEvents is the current ring occupancy.
	WindowEvents int `json:"window_events"`
	// TotalEvents counts every event ever folded for the prefix.
	TotalEvents uint64    `json:"total_events"`
	LastSeq     uint64    `json:"last_seq"`
	LastTime    time.Time `json:"last_time"`
	// Origin is the origin AS of the newest windowed announcement.
	Origin uint32 `json:"origin_as,omitempty"`
	// Withdrawn reports whether the newest event was a withdrawal.
	Withdrawn bool `json:"withdrawn"`
	// Communities is the union over the window, presentation-form.
	Communities []string `json:"communities,omitempty"`
	Alerts      []Alert  `json:"alerts,omitempty"`
}

// PrefixInfo reports the tracked state for p (false if the engine has
// never processed an event for it). Safe to call while ingesting.
func (e *Engine) PrefixInfo(p netip.Prefix) (PrefixInfo, bool) {
	p = p.Masked()
	s := e.shards[e.shardOf(p)]
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.prefixes[p]
	if !ok {
		return PrefixInfo{}, false
	}
	info := PrefixInfo{
		Prefix:       p,
		WindowEvents: st.Len(),
		TotalEvents:  st.total,
	}
	var comms bgp.CommunitySet
	for i := 0; i < st.Len(); i++ {
		ev := st.At(i)
		info.LastSeq, info.LastTime, info.Withdrawn = ev.Seq, ev.Time, ev.Withdraw
		if !ev.Withdraw {
			info.Origin = ev.Origin()
		}
		comms = comms.AddAll(ev.Communities...)
	}
	for _, c := range comms {
		info.Communities = append(info.Communities, c.String())
	}
	for _, a := range s.alerts {
		if a.Prefix == p {
			info.Alerts = append(info.Alerts, a)
		}
	}
	return info, true
}
