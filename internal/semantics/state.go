package semantics

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
)

// State is the engine's persistable snapshot: the merged evidence for
// every community, plus the fold count. The durable store writes it
// next to the watch engine's state so a restarted daemon resumes with
// the dictionary it had. Because every fold is commutative, restoring
// is just preloading the engine's accumulator with the merged evidence
// and its pairs — subsequent folds land on top, in whichever partial, a
// pair already restored counts nothing when drained, and the next
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

// ExportState drains every partial and exports the merged evidence:
// each community's sorted peer list as it stands, and the per-prefix
// community lists inverted into each community's sorted Prefixes. It is
// an exact cut when no fold is in flight — the durable store calls it
// behind the watch engine's Flush.
func (e *Engine) ExportState() *State {
	st := &State{Seq: e.seq.Load()}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	e.drain()
	d := &e.dict
	cs := slices.Sorted(maps.Keys(d.evidence))
	st.Communities = make([]EvidenceState, len(cs))
	at := make(map[bgp.Community]*EvidenceState, len(cs))
	for i, c := range cs {
		ev := d.evidence[c]
		es := &st.Communities[i]
		*es = EvidenceState{
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
			Peers:     slices.Clone(d.peers[c]),
		}
		at[c] = es
	}
	// Walking the prefixes in order appends each community's in order.
	for _, p := range slices.SortedFunc(maps.Keys(d.prefixes), netx.ComparePrefix) {
		for _, c := range d.prefixes[p] {
			at[c].Prefixes = append(at[c].Prefixes, p)
		}
	}
	return st
}

// RestoreState loads a previously exported State into a fresh engine
// (one that has never folded). The merged evidence and its pairs land in
// the engine's accumulator; commutativity makes that indistinguishable
// from having folded the original stream.
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
	e.snapMu.Lock()
	d := &e.dict
	for i := range st.Communities {
		es := &st.Communities[i]
		ev := d.tally(es.Community)
		ev.count = es.Count
		ev.onPath = es.OnPath
		ev.offPath = es.OffPath
		ev.atOrigin = es.AtOrigin
		ev.hostRoute = es.HostRoute
		ev.prepended = es.Prepended
		ev.maxTravel = es.MaxTravel
		ev.firstSeq, ev.firstTime = es.FirstSeq, es.FirstSeen
		ev.lastSeq, ev.lastTime = es.LastSeq, es.LastSeen
		d.addPeers(es.Community, es.Peers)
		c := []bgp.Community{es.Community}
		for _, p := range es.Prefixes {
			d.addCommunities(p, c)
		}
	}
	e.snapMu.Unlock()
	e.version.Add(1)
	return nil
}

// Merge builds a fleet's dictionary from its shards' exports with the
// primitives the engine drains with: counters and bounds add as a
// partial's do, peer lists join as a union, prefix counts add (shards
// own disjoint prefix ranges), and each community is classified once.
// The result is the snapshot one engine fed every shard's stream would
// publish, without an engine version; observations is the shards'
// summed count.
func Merge(observations uint64, shards ...[]Export) *Snapshot {
	d := newDictionary()
	for _, exports := range shards {
		for _, x := range exports {
			ev := d.tally(x.Community)
			ev.add(x.evidence())
			ev.prefixes += x.Prefixes
			d.addPeers(x.Community, x.PeerList)
		}
	}
	return d.publish(0, observations, nil)
}
