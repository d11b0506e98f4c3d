// Package semantics is the community dictionary-inference engine: it
// consumes routing observation streams (MRT archives, simnet taps, the
// watch engine's shards), all as the one record feed.Event, and
// maintains per-AS community
// dictionaries — which 16-bit values each AS has been observed using,
// what usage class the evidence implies (informational, blackhole
// trigger, steering, prepend, well-known), how far and wide each value
// propagates, and when it was first and last seen. This is the
// AS-level usage-classification direction of Krenc et al. crossed with
// CommunityWatch's inferred dictionaries: communities are opaque 32-bit
// values to every AS except their definer, so the only dictionary a
// third party can hold is the one inference builds from what the wire
// shows.
//
// The engine shares the repo's determinism discipline (core.Pipeline,
// watch.Engine) without owning any concurrency: it is a set of partial
// dictionaries and the accumulator they drain into. Whoever feeds it
// brings the goroutine — a single producer folds inline through Ingest
// (the sink feed.StreamMRT and feed.Tap deliver to), each watch shard
// worker folds its event batches, as they are, into a partial of its
// own — and Snapshot and ExportState drain the partials. Withdrawals and
// community-free announcements fold nothing. Every fold is commutative
// and associative (counter sums, min/max of sequence numbers and
// timestamps, each distinct (prefix, community) and (peer, community)
// pair counted once), so the merged dictionary — and the classification
// computed from it — is bit-identical however the stream was split over
// partials, in whatever order they were folded and whenever they were
// drained (TestSemanticsDeterminismAcrossWorkers,
// TestIncrementalPublicationEqualsFreshMerge). Merge builds a sharded
// fleet's dictionary from its shards' exports with the same primitives,
// each entry's peer list unioned, so it equals one engine's
// (TestMergeMatchesSingleRun).
//
// Classification is fused into publication: Snapshot classifies each
// community whose evidence changed since the last snapshot and keeps
// the last snapshot's Entry for every other; there is no second scan of
// the observation stream. The classifier is wire-honest — it
// uses only signals a passive observer has (path position, prefix
// shape, prepending, value patterns), which is why it over-counts
// blackhole triggers on squatted :666 values exactly as §7.6 describes,
// and why Score against gen ground truth is the interesting number.
package semantics

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/policy"
)

// Class is the inferred usage class of one community value, the
// Krenc-style taxonomy reduced to what this repo's worlds exercise.
type Class uint8

// Usage classes.
const (
	// ClassUnknown marks insufficient or contradictory evidence —
	// off-path-only sightings (private-ASN tags, squats) land here.
	ClassUnknown Class = iota
	// ClassInformational marks tagging with no routing action: origin,
	// ingress, and location tags (the dominant class, §4.2).
	ClassInformational
	// ClassActionBlackhole marks RTBH triggers (§5.1/§7.3).
	ClassActionBlackhole
	// ClassActionSteering marks route-selection actions that leave no
	// path trace: local-pref, selective announce/suppress (§5.2/§7.4).
	ClassActionSteering
	// ClassActionPrepend marks prepend services, visible as path
	// inflation at the defining AS (§7.4).
	ClassActionPrepend
	// ClassWellKnown marks the reserved 65535:* and 0:* ranges.
	ClassWellKnown
)

// String names the class (kebab-case, stable for JSON).
func (c Class) String() string {
	switch c {
	case ClassInformational:
		return "informational"
	case ClassActionBlackhole:
		return "action-blackhole"
	case ClassActionSteering:
		return "action-steering"
	case ClassActionPrepend:
		return "action-prepend"
	case ClassWellKnown:
		return "well-known"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the class as its name.
func (c Class) MarshalJSON() ([]byte, error) { return []byte(`"` + c.String() + `"`), nil }

// UnmarshalJSON parses a class name (the scatter-gather frontend
// decodes shard dictionary exports).
func (c *Class) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for _, k := range Classes() {
		if k.String() == name {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("semantics: unknown class %q", name)
}

// IsAction reports whether the class triggers a routing action.
func (c Class) IsAction() bool {
	return c == ClassActionBlackhole || c == ClassActionSteering || c == ClassActionPrepend
}

// Classes lists every class in declaration order (for stable reports).
func Classes() []Class {
	return []Class{ClassUnknown, ClassInformational, ClassActionBlackhole,
		ClassActionSteering, ClassActionPrepend, ClassWellKnown}
}

// ClassOfService maps a policy catalog service kind to the usage class
// its community belongs to — the ground-truth side of Score.
func ClassOfService(k policy.ServiceKind) Class {
	switch k {
	case policy.SvcBlackhole:
		return ClassActionBlackhole
	case policy.SvcPrepend:
		return ClassActionPrepend
	case policy.SvcLocalPref, policy.SvcAnnounceTo, policy.SvcNoAnnounceTo, policy.SvcNoExport:
		return ClassActionSteering
	default:
		return ClassUnknown
	}
}

// Entry is one inferred dictionary entry: a community, its evidence
// counters, and the class the classifier assigns to that evidence.
type Entry struct {
	Community bgp.Community `json:"community"`
	// Name is the presentation form ("ASN:value", or the well-known
	// symbolic name).
	Name  string `json:"name"`
	Class Class  `json:"class"`
	// Count is the number of announcements the community appeared on.
	Count uint64 `json:"count"`
	// OnPath / OffPath split sightings by whether the defining AS was on
	// the (stripped) AS path; AtOrigin counts sightings where it was the
	// origin itself.
	OnPath   uint64 `json:"on_path"`
	OffPath  uint64 `json:"off_path"`
	AtOrigin uint64 `json:"at_origin"`
	// HostRoute counts sightings on full-length (host) prefixes — the
	// RTBH announcement shape.
	HostRoute uint64 `json:"host_route"`
	// Prepended counts sightings where the defining AS appeared two or
	// more consecutive times on the raw path.
	Prepended uint64 `json:"prepended"`
	// Peers / Prefixes are the propagation fan-out: distinct observing
	// sessions and distinct tagged prefixes.
	Peers    int `json:"peers"`
	Prefixes int `json:"prefixes"`
	// MaxTravel is the maximum AS-hop distance beyond the defining AS
	// the community was seen at (-1 when the AS was never on path).
	MaxTravel int `json:"max_travel"`
	// FirstSeq/LastSeq and FirstSeen/LastSeen bound the sighting span.
	FirstSeq  uint64    `json:"first_seq"`
	LastSeq   uint64    `json:"last_seq"`
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
}

// Snapshot is an immutable point-in-time dictionary: every inferred
// entry, classified, indexed by community and grouped per defining AS.
// Snapshots are safe for concurrent readers and implement the Provider
// interface the watch detectors consume.
type Snapshot struct {
	// Version is the engine version the snapshot was taken at.
	Version uint64
	// Observations is the number of observations folded so far.
	Observations uint64

	entries map[bgp.Community]*Entry
	// peers holds each community's sorted peer list, the evidence behind
	// its entry's Peers count: what Merge unions across shards.
	peers map[bgp.Community][]uint32
	byAS  map[uint16][]*Entry
	asns  []uint16
}

// Lookup returns the dictionary entry for c, if inference has one.
func (s *Snapshot) Lookup(c bgp.Community) (*Entry, bool) {
	e, ok := s.entries[c]
	return e, ok
}

// AS returns the dictionary of one defining AS, sorted by value.
func (s *Snapshot) AS(asn uint16) []*Entry { return s.byAS[asn] }

// ASNs returns every defining AS with at least one entry, ascending.
func (s *Snapshot) ASNs() []uint16 { return s.asns }

// Len is the total number of dictionary entries.
func (s *Snapshot) Len() int { return len(s.entries) }

// Entries returns every entry sorted by (ASN, value) — the canonical
// render order.
func (s *Snapshot) Entries() []*Entry {
	out := make([]*Entry, 0, len(s.entries))
	for _, asn := range s.asns {
		out = append(out, s.byAS[asn]...)
	}
	return out
}

// Export is one dictionary entry as a shard exports it for the fleet's
// merge: the entry and its community's sorted peer list. The list is the
// only evidence that does not add across shards — one session can see
// several shards' prefixes — so Merge takes the union of the lists.
type Export struct {
	*Entry
	PeerList []uint32 `json:"peer_list"`
}

// Exports returns every entry with its peer list, in Entries order.
func (s *Snapshot) Exports() []Export {
	entries := s.Entries()
	out := make([]Export, len(entries))
	for i, e := range entries {
		out[i] = Export{Entry: e, PeerList: s.peers[e.Community]}
	}
	return out
}

// ByClass counts entries per class name.
func (s *Snapshot) ByClass() map[string]int {
	out := make(map[string]int)
	for _, e := range s.entries {
		out[e.Class.String()]++
	}
	return out
}

// Provider is the read interface dictionary consumers (the watch
// detectors, the /dict endpoints) depend on. *Snapshot implements it
// directly; *Engine implements it over its published snapshot.
type Provider interface {
	Lookup(c bgp.Community) (*Entry, bool)
}

// newSnapshot indexes an entry map and its peer lists into an immutable
// snapshot.
func newSnapshot(version, observations uint64, entries map[bgp.Community]*Entry, peers map[bgp.Community][]uint32) *Snapshot {
	s := &Snapshot{
		Version:      version,
		Observations: observations,
		entries:      entries,
		peers:        peers,
		byAS:         make(map[uint16][]*Entry),
	}
	for c, e := range entries {
		s.byAS[c.ASN()] = append(s.byAS[c.ASN()], e)
	}
	for asn, es := range s.byAS {
		sort.Slice(es, func(i, j int) bool { return es[i].Community < es[j].Community })
		s.asns = append(s.asns, asn)
	}
	sort.Slice(s.asns, func(i, j int) bool { return s.asns[i] < s.asns[j] })
	return s
}
