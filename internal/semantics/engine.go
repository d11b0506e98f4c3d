package semantics

import (
	"cmp"
	"net/netip"
	"slices"
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

// Partial is one partial dictionary: what one producer folded since the
// engine last drained it. A producer that already batches on a
// goroutine of its own — a watch shard worker — takes one from
// NewPartial and folds its batches into it there.
//
// A partial keeps, per community, only the counters and bounds folded
// since the last drain, and dedups each sighting once: it records the
// distinct (prefix, community) pairs as a community list per prefix,
// one map lookup per event, and the distinct (peer, community) pairs as
// a peer list per community, beside that community's counters. A pair
// new to the partial stays fresh until the next drain. Fold may run
// concurrently with Fold on other partials and with Snapshot and
// ExportState, which drain it.
type Partial struct {
	e  *Engine
	mu sync.Mutex
	// comms holds every community the partial has folded; dirty lists,
	// once each, those folded since the last drain.
	comms    map[bgp.Community]*folded
	dirty    []*folded
	prefixes map[netip.Prefix]sighted[bgp.Community]
	// fresh lists, once each, the prefixes that saw a community new to
	// the partial since the last drain.
	fresh []netip.Prefix
}

// folded is one community in a partial: the evidence folded since the
// last drain (count 0 when there is none) and the peers it was seen from.
type folded struct {
	c     bgp.Community
	ev    evidence
	peers sighted[uint32]
}

// sighted is what a partial has seen with one key: seen[:drained] is
// sorted and already drained, seen[drained:] is fresh, in arrival order.
type sighted[T cmp.Ordered] struct {
	seen    []T
	drained int
}

// add records x unless it was seen: a binary search of the drained
// head, then a scan of the fresh tail, which holds only what arrived
// since the last drain.
func (s *sighted[T]) add(x T) {
	if _, ok := slices.BinarySearch(s.seen[:s.drained], x); !ok && !slices.Contains(s.seen[s.drained:], x) {
		s.seen = append(s.seen, x)
	}
}

// settle marks everything seen drained.
func (s *sighted[T]) settle() {
	slices.Sort(s.seen)
	s.drained = len(s.seen)
}

// insert adds x to the sorted list unless the list holds it already,
// and reports whether it did.
func insert[T cmp.Ordered](list []T, x T) ([]T, bool) {
	i, ok := slices.BinarySearch(list, x)
	if ok {
		return list, false
	}
	return slices.Insert(list, i, x), true
}

// dictionary is the engine's merged accumulator: the evidence of every
// drain so far, and each distinct pair of the whole dictionary once —
// a sorted community list per prefix, a sorted peer list per community.
// Only Snapshot, ExportState and RestoreState touch it, under
// Engine.snapMu.
type dictionary struct {
	evidence map[bgp.Community]*evidence
	prefixes map[netip.Prefix][]bgp.Community
	peers    map[bgp.Community][]uint32
	// changed holds the communities whose evidence moved since the last
	// Snapshot: the only entries the next one classifies anew.
	changed map[bgp.Community]struct{}
}

func newDictionary() dictionary {
	return dictionary{
		evidence: make(map[bgp.Community]*evidence),
		prefixes: make(map[netip.Prefix][]bgp.Community),
		peers:    make(map[bgp.Community][]uint32),
		changed:  make(map[bgp.Community]struct{}),
	}
}

// tally returns c's merged evidence, creating it empty, and marks c
// changed.
func (d *dictionary) tally(c bgp.Community) *evidence {
	d.changed[c] = struct{}{}
	ev := d.evidence[c]
	if ev == nil {
		ev = newEvidence()
		d.evidence[c] = ev
	}
	return ev
}

// addPeers adds community c's peers to its sorted peer list. A peer the
// list holds already — from another partial or shard, or a restored
// state — adds nothing. The caller has tallied c.
func (d *dictionary) addPeers(c bgp.Community, peers []uint32) {
	list := slices.Grow(d.peers[c], len(peers))
	for _, peer := range peers {
		list, _ = insert(list, peer)
	}
	d.peers[c] = list
}

// addCommunities adds prefix p's communities to the dictionary, growing
// its list once for the batch and counting each pair the whole
// dictionary lacks.
func (d *dictionary) addCommunities(p netip.Prefix, cs []bgp.Community) {
	list := slices.Grow(d.prefixes[p], len(cs))
	for _, c := range cs {
		var added bool
		if list, added = insert(list, c); added {
			d.tally(c).prefixes++
		}
	}
	d.prefixes[p] = list
}

// publish classifies each community whose evidence changed since the
// last publish — every community when there is no prev — beside a copy
// of its peer list, takes every other entry and list from prev
// unchanged, and indexes them into a new snapshot.
func (d *dictionary) publish(version, observations uint64, prev *Snapshot) *Snapshot {
	entries := make(map[bgp.Community]*Entry, len(d.evidence))
	peers := make(map[bgp.Community][]uint32, len(d.evidence))
	for c, ev := range d.evidence {
		if _, moved := d.changed[c]; moved || prev == nil {
			list := slices.Clone(d.peers[c])
			entries[c], peers[c] = ev.entry(c, len(list)), list
		} else {
			entries[c], peers[c] = prev.entries[c], prev.peers[c]
		}
	}
	clear(d.changed)
	return newSnapshot(version, observations, entries, peers)
}

// Engine is the dictionary-inference engine: a set of partial
// dictionaries and the accumulator they drain into. It runs no goroutine
// and queues nothing — an event is folded by the time Ingest or Fold
// returns. Create with NewEngine; feed with Ingest (the engine's own
// partial, for single-producer callers: pass it to feed.StreamMRT or
// feed.Tap) or Fold on partials handed out by NewPartial; read with
// Snapshot at any time.
//
// Snapshot and ExportState drain every partial into the accumulator;
// Snapshot then classifies only the communities that changed since the
// last one and reuses the last snapshot's *Entry for the rest, so it
// costs what changed, not every pair ever seen. The last snapshot taken
// is the published one: Lookup (the engine is a Provider) and Published
// read it lock-free, so a dictionary consulted while folds land changes
// only when someone calls Snapshot.
type Engine struct {
	own *Partial // Ingest lands here

	mu       sync.Mutex // guards partials, which only grows
	partials []*Partial

	closed atomic.Bool
	// seq counts observations folded through any partial; Ingest stamps
	// unsequenced observations from it.
	seq     atomic.Uint64
	version atomic.Uint64
	merges  atomic.Uint64

	foldHist *obs.Histogram // process-wide, shared by every engine

	snapMu sync.Mutex               // serializes drains; guards dict
	dict   dictionary               // every partial's evidence drained so far
	snap   atomic.Pointer[Snapshot] // the published snapshot
}

// NewEngine returns an empty engine.
func NewEngine(Config) *Engine {
	e := &Engine{dict: newDictionary(), foldHist: obs.Default.Histogram("semantics_fold_seconds",
		"partial fold-batch latency", obs.DurationBuckets)}
	e.own = e.NewPartial()
	return e
}

// Collect emits the engine's per-instance series for the server that
// holds it. It reads only atomics — never Snapshot or Stats, which drain
// every partial under its lock — so a scrape never waits on a fold.
func (e *Engine) Collect(emit func(obs.Sample)) {
	counter := func(name, help string, v uint64) {
		emit(obs.Sample{Name: name, Help: help, Type: obs.TypeCounter, Value: float64(v)})
	}
	// Folding is inline, so accepted and folded are one count.
	n := e.seq.Load()
	counter("semantics_ingested_total", "observations accepted for folding", n)
	counter("semantics_processed_total", "observations folded into a partial", n)
	counter("semantics_merges_total", "snapshots that drained the partials and republished the changed entries", e.merges.Load())
}

// NewPartial registers and returns a new empty partial dictionary.
func (e *Engine) NewPartial() *Partial {
	p := &Partial{
		e:        e,
		comms:    make(map[bgp.Community]*folded),
		prefixes: make(map[netip.Prefix]sighted[bgp.Community]),
	}
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

// fold adds one event's evidence: its counters and its peer to each of
// its communities, and its communities to its prefix. Communities need
// not be a normalized set: each is looked up, so a duplicate folds its
// counters twice and its pairs once. Caller holds p.mu.
func (p *Partial) fold(ev *feed.Event) {
	for _, c := range ev.Communities {
		f := p.comms[c]
		if f == nil {
			f = &folded{c: c, ev: *newEvidence()}
			p.comms[c] = f
		}
		if f.ev.count == 0 {
			p.dirty = append(p.dirty, f)
		}
		f.ev.fold(ev, c)
		f.peers.add(ev.PeerAS)
	}
	s := p.prefixes[ev.Prefix]
	n := len(s.seen)
	for _, c := range ev.Communities {
		s.add(c)
	}
	if len(s.seen) > n {
		if n == s.drained {
			p.fresh = append(p.fresh, ev.Prefix)
		}
		p.prefixes[ev.Prefix] = s
	}
}

// drainInto moves the partial's dirty evidence and fresh pairs into the
// engine's dictionary. Caller holds e.snapMu.
func (p *Partial) drainInto(d *dictionary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Every community with fresh peers is dirty: it was folded since.
	for _, f := range p.dirty {
		d.tally(f.c).add(&f.ev)
		f.ev = *newEvidence()
		d.addPeers(f.c, f.peers.seen[f.peers.drained:])
		f.peers.settle()
	}
	p.dirty = p.dirty[:0]
	for _, pfx := range p.fresh {
		s := p.prefixes[pfx]
		d.addCommunities(pfx, s.seen[s.drained:])
		s.settle()
		p.prefixes[pfx] = s
	}
	p.fresh = p.fresh[:0]
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
		ev.Time = feed.LogicalTime(ev.Seq)
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

// drain moves every partial's evidence into the dictionary. Caller
// holds e.snapMu.
func (e *Engine) drain() {
	e.mu.Lock()
	partials := e.partials
	e.mu.Unlock()
	for _, p := range partials {
		p.drainInto(&e.dict)
	}
}

// Snapshot drains every partial dictionary, classifies each community
// whose evidence changed since the last snapshot, publishes the result
// and returns it. Every other entry is the last snapshot's *Entry,
// unchanged. The snapshot is bit-identical however the stream was split
// over partials and whenever earlier snapshots were taken (every fold
// and drain is commutative); repeated calls at an unchanged version
// return the published snapshot.
func (e *Engine) Snapshot() *Snapshot {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	// Read before draining: a fold bumps the version after it unlocks its
	// partial, so the drain holds at least everything v counts.
	v := e.version.Load()
	prev := e.snap.Load()
	if prev != nil && prev.Version == v {
		return prev
	}
	e.merges.Add(1)
	e.drain()
	s := e.dict.publish(v, e.seq.Load(), prev)
	e.snap.Store(s)
	return s
}

// Published returns the last snapshot Snapshot took (nil before the
// first).
func (e *Engine) Published() *Snapshot { return e.snap.Load() }

// Lookup implements Provider over the published snapshot: before the
// first Snapshot the dictionary is empty.
func (e *Engine) Lookup(c bgp.Community) (*Entry, bool) {
	if s := e.snap.Load(); s != nil {
		return s.Lookup(c)
	}
	return nil, false
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
// reusing the published one when nothing changed).
func (e *Engine) Stats() Stats {
	return e.StatsOf(e.Snapshot())
}

// StatsOf reports the live counters against the shape of an existing
// snapshot, without draining — the daemon serves its published
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
