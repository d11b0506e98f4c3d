package semantics

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"bgpworms/internal/bgp"
)

// State is the engine's persistable snapshot: the merged evidence for
// every community, plus the fold count. The durable store writes it
// next to the watch engine's state so a restarted daemon resumes with
// the dictionary it had. Because every fold is commutative, restoring
// is just preloading the engine's own partial with the merged evidence
// — subsequent folds land on top, in whichever partial, and the next
// Snapshot is identical to one from an uninterrupted run.
type State struct {
	// Seq is the number of observations folded, which is also the last
	// sequence number Ingest stamped.
	Seq uint64
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

// ExportState snapshots the merged evidence of every partial. It is an
// exact cut when no fold is in flight — the durable store calls it
// behind the watch engine's Flush.
func (e *Engine) ExportState() *State {
	st := &State{Seq: e.seq.Load()}
	for c, ev := range e.merged() {
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
// (one that has never folded). The merged evidence lands on the engine's
// own partial; commutativity makes that indistinguishable from having
// folded the original stream.
func (e *Engine) RestoreState(st *State) error {
	if st == nil {
		return nil
	}
	if e.closed.Load() {
		return fmt.Errorf("semantics: restore into closed engine")
	}
	if seq := e.seq.Load(); seq != 0 {
		return fmt.Errorf("semantics: restore into engine that already ingested (seq=%d)", seq)
	}
	e.seq.Store(st.Seq)
	own := e.own
	own.mu.Lock()
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
		own.acc[es.Community] = ev
	}
	own.mu.Unlock()
	e.version.Add(1)
	return nil
}

// MergeEntries merges already-classified dictionary entries for the
// same communities into one snapshot — the scatter-gather path, where
// each shard holds a partial dictionary built from a disjoint slice of
// the prefix space and observations is the shards' summed count.
// Counter fields add exactly, first/last bounds take min/max, and the
// class is re-derived from the merged counters (classification uses
// only additive evidence, so the merged class equals the class a
// single-process run would assign). Two caveats, both documented on
// the frontend: Peers sums to an upper bound (the same session can
// observe more than one shard's prefixes), while Prefixes is exact
// under prefix sharding (prefix sets are disjoint by construction).
// The result has no engine version.
func MergeEntries(observations uint64, lists ...[]*Entry) *Snapshot {
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
	}
	return newSnapshot(0, observations, merged)
}
