package semantics

import (
	"net/netip"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
)

// evidence is one community's counters and bounds. A partial holds the
// evidence folded since its last drain; the engine's accumulator holds
// the sum of every drain, plus the prefix count its pair lists keep.
// Every field folds commutatively and associatively (sums, min/max),
// which is what makes the merged dictionary invariant to how the
// observation stream was partitioned across partials.
type evidence struct {
	count     uint64
	onPath    uint64
	offPath   uint64
	atOrigin  uint64
	hostRoute uint64
	prepended uint64
	maxTravel int
	firstSeq  uint64
	lastSeq   uint64
	firstTime time.Time
	lastTime  time.Time
	// prefixes counts the distinct (prefix, community) pairs of the whole
	// dictionary; only a dictionary sets it. The distinct peers are its
	// peer list's length.
	prefixes int
}

// newEvidence returns evidence with nothing folded: a MaxTravel of -1
// says the defining AS was never on path.
func newEvidence() *evidence { return &evidence{maxTravel: -1} }

// pathFacts is what one raw AS path says about one defining AS, scanned
// once without allocating: whether the AS is on the path, its hop
// distance on the prepending-stripped path (§4.1 normalization), and
// whether it appeared prepended (≥2 consecutive copies).
func pathFacts(path []uint32, asn uint32) (onPath bool, travel int, prepended bool) {
	travel = -1
	stripped := -1 // index on the stripped path of the element under scan
	var prev uint32
	run := 0
	for i, a := range path {
		if i == 0 || a != prev {
			stripped++
			run = 1
		} else {
			run++
		}
		prev = a
		if a == asn {
			if travel < 0 {
				travel = stripped
			}
			onPath = true
			if run >= 2 {
				prepended = true
			}
		}
	}
	return onPath, travel, prepended
}

// isHostRoute reports whether the prefix is a full-length (host) route
// — the shape RTBH announcements take.
func isHostRoute(p netip.Prefix) bool {
	return p.IsValid() && p.Bits() == p.Addr().BitLen()
}

// fold updates the community's evidence with one sighting. Classified
// lazily at snapshot time; the hot path is counters only (the partial
// records the sighting's pairs beside them).
func (e *evidence) fold(ob *feed.Event, c bgp.Community) {
	asn := uint32(c.ASN())
	onPath, travel, prepended := pathFacts(ob.ASPath, asn)
	e.count++
	if onPath {
		e.onPath++
		if travel > e.maxTravel {
			e.maxTravel = travel
		}
		if prepended {
			e.prepended++
		}
		if len(ob.ASPath) > 0 && ob.ASPath[len(ob.ASPath)-1] == asn {
			e.atOrigin++
		}
	} else {
		e.offPath++
	}
	if isHostRoute(ob.Prefix) {
		e.hostRoute++
	}
	if e.count == 1 || ob.Seq < e.firstSeq {
		e.firstSeq, e.firstTime = ob.Seq, ob.Time
	}
	if ob.Seq > e.lastSeq {
		e.lastSeq, e.lastTime = ob.Seq, ob.Time
	}
}

// add folds a partial's drained counters and bounds, or a shard's, into
// e. Commutative: drain order never changes the result. The prefix count
// is not added: a pair counts once, when the dictionary first admits it.
func (e *evidence) add(o *evidence) {
	if e.count == 0 || o.firstSeq < e.firstSeq {
		e.firstSeq, e.firstTime = o.firstSeq, o.firstTime
	}
	if o.lastSeq > e.lastSeq {
		e.lastSeq, e.lastTime = o.lastSeq, o.lastTime
	}
	e.count += o.count
	e.onPath += o.onPath
	e.offPath += o.offPath
	e.atOrigin += o.atOrigin
	e.hostRoute += o.hostRoute
	e.prepended += o.prepended
	if o.maxTravel > e.maxTravel {
		e.maxTravel = o.maxTravel
	}
}

// BlackholePattern reports whether the value looks like a blackhole
// trigger by convention: the RFC 7999 value/:666 label, or the :999
// label some providers substitute. It is the single definition shared
// by the classifier and the unknown-action-community detector, so the
// two cannot drift apart.
func BlackholePattern(c bgp.Community) bool {
	return c.IsBlackhole() || c.Value() == 999
}

// classify is the fused classifier: a pure function of one community's
// merged evidence, evaluated when a snapshot republishes the community —
// the engine's and the fleet's Merge alike. The rules
// are wire-honest — only signals a passive observer has:
//
//  1. reserved ranges are well-known;
//  2. blackhole: host-route-majority sightings (the /32 RTBH shape), or
//     a conventional blackhole value with any sighting — the §7.6
//     value-pattern inference, which deliberately over-counts squatted
//     decoys (Score against ground truth quantifies exactly that);
//  3. prepend: the defining AS shows prepended on the majority of its
//     on-path sightings;
//  4. steering: the community was seen both below its defining AS
//     (off-path: traveling toward the AS that will act) and above it
//     (on-path: past the actor), never prepended, never at the origin —
//     the shape of a customer-set action request;
//  5. otherwise: on-path sightings mean informational tagging; off-path-
//     only sightings (private tags, bundles, squats) stay unknown.
func classify(c bgp.Community, e *evidence) Class {
	if c.IsWellKnown() {
		return ClassWellKnown
	}
	if e.count == 0 {
		return ClassUnknown
	}
	if e.hostRoute*2 >= e.count || BlackholePattern(c) {
		return ClassActionBlackhole
	}
	if e.onPath > 0 && e.prepended*2 >= e.onPath {
		return ClassActionPrepend
	}
	if e.onPath > 0 && e.offPath > 0 && e.atOrigin == 0 && e.prepended == 0 {
		return ClassActionSteering
	}
	if e.onPath > 0 {
		return ClassInformational
	}
	return ClassUnknown
}

// entry materializes the public Entry from merged evidence and the
// length of the community's peer list, with its class — the single
// classification point of the engine and of Merge.
func (e *evidence) entry(c bgp.Community, peers int) *Entry {
	return &Entry{
		Community: c,
		Name:      c.Display(),
		Class:     classify(c, e),
		Count:     e.count,
		OnPath:    e.onPath,
		OffPath:   e.offPath,
		AtOrigin:  e.atOrigin,
		HostRoute: e.hostRoute,
		Prepended: e.prepended,
		Peers:     peers,
		Prefixes:  e.prefixes,
		MaxTravel: e.maxTravel,
		FirstSeq:  e.firstSeq,
		LastSeq:   e.lastSeq,
		FirstSeen: e.firstTime,
		LastSeen:  e.lastTime,
	}
}

// evidence reads back the counters and bounds an entry was materialized
// from: what a shard's export adds to the fleet's merge.
func (en *Entry) evidence() *evidence {
	return &evidence{
		count:     en.Count,
		onPath:    en.OnPath,
		offPath:   en.OffPath,
		atOrigin:  en.AtOrigin,
		hostRoute: en.HostRoute,
		prepended: en.Prepended,
		maxTravel: en.MaxTravel,
		firstSeq:  en.FirstSeq,
		lastSeq:   en.LastSeq,
		firstTime: en.FirstSeen,
		lastTime:  en.LastSeen,
	}
}
