package semantics

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"bgpworms/internal/bgp"
)

// State is the engine's persistable snapshot: the merged evidence for
// every community, plus the ingest counters. The durable store writes
// it next to the watch engine's state so a restarted daemon resumes
// with the dictionary it had. Because every fold is commutative,
// restoring is just preloading one worker's partial with the merged
// evidence — subsequent folds land on top and the next Snapshot is
// identical to one from an uninterrupted run.
type State struct {
	// Seq is the engine's last assigned observation sequence number.
	Seq       uint64
	Ingested  uint64
	Processed uint64
	Dropped   uint64
	// Communities is the merged evidence, sorted by community so the
	// export is byte-stable.
	Communities []EvidenceState
}

// EvidenceState is one community's persisted evidence accumulator —
// the full fold state, not the classified Entry, so restoring loses
// nothing.
type EvidenceState struct {
	Community bgp.Community
	Count     uint64
	OnPath    uint64
	OffPath   uint64
	AtOrigin  uint64
	HostRoute uint64
	Prepended uint64
	MaxTravel int
	FirstSeq  uint64
	LastSeq   uint64
	FirstSeen time.Time
	LastSeen  time.Time
	Peers     []uint32
	Prefixes  []netip.Prefix
}

// ExportState flushes pending folds and snapshots the merged evidence.
func (e *Engine) ExportState() *State {
	e.Flush()
	e.mu.Lock()
	seq := e.seq
	e.mu.Unlock()
	merged := make(map[bgp.Community]*evidence)
	for _, w := range e.workers {
		w.mu.Lock()
		for c, ev := range w.acc {
			m := merged[c]
			if m == nil {
				m = newEvidence()
				merged[c] = m
			}
			m.merge(ev)
		}
		w.mu.Unlock()
	}
	st := &State{
		Seq:       seq,
		Ingested:  e.ingested.Load(),
		Processed: e.processed.Load(),
		Dropped:   e.dropped.Load(),
	}
	for c, ev := range merged {
		es := EvidenceState{
			Community: c,
			Count:     ev.count,
			OnPath:    ev.onPath,
			OffPath:   ev.offPath,
			AtOrigin:  ev.atOrigin,
			HostRoute: ev.hostRoute,
			Prepended: ev.prepended,
			MaxTravel: ev.maxTravel,
			FirstSeq:  ev.firstSeq,
			LastSeq:   ev.lastSeq,
			FirstSeen: ev.firstTime,
			LastSeen:  ev.lastTime,
		}
		for p := range ev.peers {
			es.Peers = append(es.Peers, p)
		}
		sort.Slice(es.Peers, func(i, j int) bool { return es.Peers[i] < es.Peers[j] })
		for p := range ev.prefixes {
			es.Prefixes = append(es.Prefixes, p)
		}
		sort.Slice(es.Prefixes, func(i, j int) bool {
			a, b := es.Prefixes[i], es.Prefixes[j]
			if c := a.Addr().Compare(b.Addr()); c != 0 {
				return c < 0
			}
			return a.Bits() < b.Bits()
		})
		st.Communities = append(st.Communities, es)
	}
	sort.Slice(st.Communities, func(i, j int) bool {
		return st.Communities[i].Community < st.Communities[j].Community
	})
	return st
}

// RestoreState loads a previously exported State into a fresh engine
// (one that has never ingested). The merged evidence lands on worker
// 0's partial; commutativity makes that indistinguishable from having
// folded the original stream.
func (e *Engine) RestoreState(st *State) error {
	if st == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("semantics: restore into closed engine")
	}
	if e.seq != 0 || e.ingested.Load() != 0 {
		e.mu.Unlock()
		return fmt.Errorf("semantics: restore into engine that already ingested (seq=%d)", e.seq)
	}
	e.seq = st.Seq
	e.mu.Unlock()
	e.ingested.Store(st.Ingested)
	e.processed.Store(st.Processed)
	e.dropped.Store(st.Dropped)
	w := e.workers[0]
	w.mu.Lock()
	for i := range st.Communities {
		es := &st.Communities[i]
		ev := newEvidence()
		ev.count = es.Count
		ev.onPath = es.OnPath
		ev.offPath = es.OffPath
		ev.atOrigin = es.AtOrigin
		ev.hostRoute = es.HostRoute
		ev.prepended = es.Prepended
		ev.maxTravel = es.MaxTravel
		ev.firstSeq, ev.firstTime = es.FirstSeq, es.FirstSeen
		ev.lastSeq, ev.lastTime = es.LastSeq, es.LastSeen
		for _, p := range es.Peers {
			ev.peers[p] = struct{}{}
		}
		for _, p := range es.Prefixes {
			ev.prefixes[p] = struct{}{}
		}
		w.acc[es.Community] = ev
	}
	w.mu.Unlock()
	e.version.Add(1)
	return nil
}

// MergeEntries merges already-classified dictionary entries for the
// same communities — the scatter-gather path, where each shard holds a
// partial dictionary built from a disjoint slice of the prefix space.
// Counter fields add exactly, first/last bounds take min/max, and the
// class is re-derived from the merged counters (classification uses
// only additive evidence, so the merged class equals the class a
// single-process run would assign). Two caveats, both documented on
// the frontend: Peers sums to an upper bound (the same session can
// observe more than one shard's prefixes), while Prefixes is exact
// under prefix sharding (prefix sets are disjoint by construction).
// The result is sorted by (ASN, community), the canonical render order.
func MergeEntries(lists ...[]*Entry) []*Entry {
	merged := make(map[bgp.Community]*Entry)
	for _, list := range lists {
		for _, in := range list {
			m := merged[in.Community]
			if m == nil {
				cp := *in
				merged[in.Community] = &cp
				continue
			}
			if in.Count > 0 && (m.Count == 0 || in.FirstSeq < m.FirstSeq) {
				m.FirstSeq, m.FirstSeen = in.FirstSeq, in.FirstSeen
			}
			if in.LastSeq > m.LastSeq {
				m.LastSeq, m.LastSeen = in.LastSeq, in.LastSeen
			}
			m.Count += in.Count
			m.OnPath += in.OnPath
			m.OffPath += in.OffPath
			m.AtOrigin += in.AtOrigin
			m.HostRoute += in.HostRoute
			m.Prepended += in.Prepended
			m.Peers += in.Peers
			m.Prefixes += in.Prefixes
			if in.MaxTravel > m.MaxTravel {
				m.MaxTravel = in.MaxTravel
			}
		}
	}
	out := make([]*Entry, 0, len(merged))
	for _, m := range merged {
		m.Class = classify(m.Community, &evidence{
			count:     m.Count,
			onPath:    m.OnPath,
			offPath:   m.OffPath,
			atOrigin:  m.AtOrigin,
			hostRoute: m.HostRoute,
			prepended: m.Prepended,
			maxTravel: m.MaxTravel,
		})
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Community.ASN() != b.Community.ASN() {
			return a.Community.ASN() < b.Community.ASN()
		}
		return a.Community < b.Community
	})
	return out
}
