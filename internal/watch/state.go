package watch

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"bgpworms/internal/feed"
)

// State is the engine's persistable snapshot: everything needed to
// rebuild an equivalent engine after a restart. The durable store
// (internal/durable) encodes it next to a WAL position so recovery is
// restore-from-State plus replay of the WAL tail.
//
// Exporting while feeds are live yields a consistent but arbitrary cut;
// for an exact cut (the durable snapshot discipline) the caller gates
// ingest around ExportState — and only around it: the State shares no
// mutable memory with the engine, so it can be encoded while ingest
// runs on.
type State struct {
	// Seq is the last assigned ingest sequence number.
	Seq uint64
	// Ingested / Processed / AlertsRaised / AlertsTruncated mirror the
	// Stats counters at export time.
	Ingested        uint64
	Processed       uint64
	AlertsRaised    uint64
	AlertsTruncated uint64
	// Prefixes holds every tracked prefix's window, sorted by prefix
	// (address, then length) so the export is byte-stable.
	Prefixes []PrefixWindow
	// Alerts is every retained alert, ordered by Seq.
	Alerts []Alert
	// ByDetector carries the per-detector firing totals (they outlive
	// retention truncation, so they cannot be rebuilt from Alerts).
	ByDetector map[string]uint64
}

// PrefixWindow is one prefix's persisted sliding-window state.
type PrefixWindow struct {
	Prefix netip.Prefix
	// Total counts every event ever folded for the prefix.
	Total uint64
	// Events is the current ring content, oldest first. The events are
	// copies, but their ASPath and Communities slices are the ones the
	// live ring holds: an ingested event's slices are never written
	// again (the ring replaces whole events), so sharing them is safe
	// and keeps the export a shallow copy.
	Events []feed.Event
}

// ExportState flushes pending work and snapshots the engine's full
// state. Safe to call while ingesting (it takes the shard locks the way
// Stats does), but only a quiesced export is an exact cut.
func (e *Engine) ExportState() *State {
	e.Flush()
	e.mu.Lock()
	seq := e.seq
	e.mu.Unlock()
	st := &State{
		Seq:             seq,
		Ingested:        e.ingested.Load(),
		Processed:       e.processed.Load(),
		AlertsRaised:    e.alerts.Load(),
		AlertsTruncated: e.truncated.Load(),
		ByDetector:      make(map[string]uint64),
	}
	for _, s := range e.shards {
		s.mu.Lock()
		// One slab per shard holds every window's events: the export runs
		// inside the durable store's ingest fence, where 5,000 growing
		// appends were most of its time.
		n := 0
		for _, ps := range s.prefixes {
			n += ps.n
		}
		slab := make([]feed.Event, 0, n)
		st.Prefixes = slices.Grow(st.Prefixes, len(s.prefixes))
		for p, ps := range s.prefixes {
			from := len(slab)
			for i := 0; i < ps.n; i++ {
				slab = append(slab, *ps.At(i))
			}
			st.Prefixes = append(st.Prefixes, PrefixWindow{Prefix: p, Total: ps.total, Events: slab[from:len(slab):len(slab)]})
		}
		st.Alerts = append(st.Alerts, s.alerts...)
		for k, v := range s.byDetector {
			st.ByDetector[k] += v
		}
		s.mu.Unlock()
	}
	sort.Slice(st.Prefixes, func(i, j int) bool {
		a, b := st.Prefixes[i].Prefix, st.Prefixes[j].Prefix
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c < 0
		}
		return a.Bits() < b.Bits()
	})
	sort.SliceStable(st.Alerts, func(i, j int) bool { return st.Alerts[i].Seq < st.Alerts[j].Seq })
	return st
}

// RestoreState loads a previously exported State into a fresh engine
// (one that has never ingested). Window events are re-pushed through the
// ring, so the restored engine honors the *current* Config's
// WindowEvents/Window bounds; with an unchanged Config the restored
// windows are identical to the exported ones. After restore, ingest
// resumes from State.Seq+1 and detectors see exactly the windows the
// crashed engine held.
func (e *Engine) RestoreState(st *State) error {
	if st == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("watch: restore into closed engine")
	}
	if e.seq != 0 || e.ingested.Load() != 0 {
		e.mu.Unlock()
		return fmt.Errorf("watch: restore into engine that already ingested (seq=%d)", e.seq)
	}
	e.seq = st.Seq
	e.mu.Unlock()
	e.ingested.Store(st.Ingested)
	e.processed.Store(st.Processed)
	e.alerts.Store(st.AlertsRaised)
	e.truncated.Store(st.AlertsTruncated)
	for i := range st.Prefixes {
		w := &st.Prefixes[i]
		p := w.Prefix.Masked()
		s := e.shards[e.shardOf(p)]
		s.mu.Lock()
		ps := newPrefixState(e.cfg.WindowEvents)
		for j := range w.Events {
			ps.push(&w.Events[j], e.cfg.Window)
		}
		ps.total = w.Total
		s.prefixes[p] = ps
		s.mu.Unlock()
	}
	for _, a := range st.Alerts {
		s := e.shards[e.shardOf(a.Prefix.Masked())]
		s.mu.Lock()
		s.alerts = append(s.alerts, a)
		s.mu.Unlock()
	}
	if len(st.ByDetector) > 0 {
		// Per-detector totals are only ever read summed across shards, so
		// the whole restored map can live on shard 0.
		s := e.shards[0]
		s.mu.Lock()
		for k, v := range st.ByDetector {
			s.byDetector[k] += v
		}
		s.mu.Unlock()
	}
	e.version.Add(1)
	return nil
}
