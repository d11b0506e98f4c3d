package watch

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
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
	// AlertsTruncated mirrors the Stats counter. The others are not kept:
	// ingested and processed are the windows' Totals summed (every
	// applied event sits in one window), alerts raised ByDetector's.
	AlertsTruncated uint64
	// Prefixes holds every tracked prefix's window, sorted by prefix
	// (address, then length) so the export is byte-stable.
	Prefixes []PrefixWindow
	// Alerts is every retained alert, ordered by Seq.
	Alerts []Alert
	// ByDetector carries the per-detector firing totals (they outlive
	// retention truncation, so they cannot be rebuilt from Alerts).
	ByDetector map[string]uint64

	// tables resolves the windows AppendWindow builds.
	tables *tables
}

// PrefixWindow is one prefix's persisted sliding-window state.
type PrefixWindow struct {
	Prefix netip.Prefix
	// Total counts every event ever folded for the prefix.
	Total uint64
	// events is the window content, oldest first, in the compact form
	// the engine's rings hold: copies, whose ids resolve through t. An
	// export's t is its own copy of the shard's id lists, taken with the
	// entries, because the shard reuses a released id for another value;
	// the values themselves are never written and are shared.
	events []entry
	t      *tables
}

// Len is the number of windowed events.
func (w *PrefixWindow) Len() int { return len(w.events) }

// At returns the i-th windowed event, oldest first (0 <= i < Len).
func (w *PrefixWindow) At(i int) WindowEvent { return WindowEvent{&w.events[i], w.t} }

// MarshalJSON writes the window as {Prefix, Total, Events}, the events
// materialised: a State's JSON reads as it did when windows held
// feed.Events, so two exports compare by their JSON.
func (w PrefixWindow) MarshalJSON() ([]byte, error) {
	events := make([]feed.Event, len(w.events))
	for i := range events {
		events[i] = w.At(i).FeedEvent(w.Prefix)
	}
	return json.Marshal(struct {
		Prefix netip.Prefix
		Total  uint64
		Events []feed.Event
	}{w.Prefix, w.Total, events})
}

// AppendWindow appends p's window, holding events oldest first, to st:
// how a checkpoint decoder builds the State that RestoreState takes.
// The events' paths and community sets are interned into st's own
// tables, which copy only the values they do not hold yet, so the
// caller may reuse the events and their slices once this returns.
func (st *State) AppendWindow(p netip.Prefix, total uint64, events []feed.Event) {
	if st.tables == nil {
		st.tables = &tables{}
	}
	w := PrefixWindow{Prefix: p, Total: total, t: st.tables}
	if len(events) > 0 {
		w.events = make([]entry, len(events))
		for i := range events {
			w.events[i] = st.tables.compact(&events[i], false)
		}
	}
	st.Prefixes = append(st.Prefixes, w)
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
		AlertsTruncated: e.truncated.Load(),
		ByDetector:      make(map[string]uint64),
	}
	for _, s := range e.shards {
		s.mu.Lock()
		// One slab per shard holds every window's entries: the export
		// runs inside the durable store's ingest fence, where 5,000
		// growing appends were most of its time.
		n := 0
		for _, ps := range s.prefixes {
			n += ps.n
		}
		slab := make([]entry, 0, n)
		t := s.t.frozen()
		st.Prefixes = slices.Grow(st.Prefixes, len(s.prefixes))
		for p, ps := range s.prefixes {
			from := len(slab)
			if end := ps.head + ps.n; end <= len(ps.ring) {
				slab = append(slab, ps.ring[ps.head:end]...)
			} else {
				slab = append(slab, ps.ring[ps.head:]...)
				slab = append(slab, ps.ring[:end-len(ps.ring)]...)
			}
			st.Prefixes = append(st.Prefixes, PrefixWindow{Prefix: p, Total: ps.total, events: slab[from:len(slab):len(slab)], t: t})
		}
		st.Alerts = append(st.Alerts, s.alerts...)
		for k, v := range s.byDetector {
			st.ByDetector[k] += v
		}
		s.mu.Unlock()
	}
	slices.SortFunc(st.Prefixes, func(a, b PrefixWindow) int { return netx.ComparePrefix(a.Prefix, b.Prefix) })
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
	e.truncated.Store(st.AlertsTruncated)
	var applied uint64
	for i := range st.Prefixes {
		w := &st.Prefixes[i]
		p := w.Prefix.Masked()
		s := e.shards[e.shardOf(p)]
		s.mu.Lock()
		ps := newPrefixState(e.cfg.WindowEvents, s.t)
		for j := 0; j < w.Len(); j++ {
			ev := w.At(j).FeedEvent(w.Prefix)
			ps.push(&ev, e.cfg.Window)
		}
		ps.total = w.Total
		s.prefixes[p] = ps
		s.mu.Unlock()
		applied += w.Total
	}
	e.ingested.Store(applied)
	e.processed.Store(applied)
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
