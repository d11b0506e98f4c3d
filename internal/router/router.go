// Package router models an AS-level BGP speaker: Adj-RIB-In, Loc-RIB with
// the full decision process, Adj-RIB-Out, per-session ingress tags and
// community propagation, the community-triggered services of §2, and the
// vendor-specific behaviours §6 measured in the lab (JunOS forwards
// communities by default, IOS strips them unless send-community is
// configured, IOS caps community additions at 32, and
// BlackholeBeforeValidate runs blackhole processing ahead of origin
// validation, the §6.3 misconfiguration).
//
// All three tables live in one paged table of fixed-size slots indexed
// by a dense prefix id (PrefixTable), with the variable-length candidate
// and advertisement runs in two per-router slabs (table.go). Routes
// themselves live in a RouteArena (arena.go) as records of ids — the
// AS path and community set interned once per network (intern.go) — and
// the tables hold 32-bit handles to them, so no slot, slab or arena page
// holds a pointer. The batched
// entry points the delta engine drives — ExportAll, RecordAdvertisedAll,
// ReceiveSharedNoDecide, WithdrawNoDecide, Decide — take the id and pass
// routes by handle, so convergence hashes no prefix.
//
// There is one import policy, importScan, which ReceiveSharedNoDecide
// runs, and one export policy, ExportAll. The single-step, prefix-keyed
// API is a one-session view of the same path: ReceiveUpdate stores its
// route in the arena and runs ReceiveSharedNoDecide, then Decide;
// ReceiveWithdraw is WithdrawNoDecide, then Decide; ExportTo is ExportAll
// for one session, resolved to a *policy.Route. The readers (BestRoute,
// Advertised, ...) resolve the id through the table first. See
// ARCHITECTURE.md, "Router memory layout".
package router

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// Vendor selects default community-handling behaviour (§6.1).
type Vendor int

// Vendors exercised in the paper's lab.
const (
	// VendorJuniper propagates received communities by default.
	VendorJuniper Vendor = iota
	// VendorCisco strips communities on export unless send-community is
	// configured per neighbor, and caps added communities at 32.
	VendorCisco
)

// CiscoMaxAddedCommunities is the IOS limit on distinct communities a
// configuration can add to a prefix (§6.1).
const CiscoMaxAddedCommunities = 32

// Default local preferences by relationship; customers are preferred, the
// standard Gao-Rexford economic ordering.
const (
	LocalPrefCustomer  uint32 = 140
	LocalPrefPeer      uint32 = 120
	LocalPrefProvider  uint32 = 100
	LocalPrefBlackhole uint32 = 200 // RTBH configs raise precedence (§5.1)
)

// Config parameterizes a router.
type Config struct {
	ASN    topo.ASN
	Vendor Vendor

	// SendCommunity enables community export toward a neighbor. Relevant
	// for VendorCisco only; VendorJuniper sends regardless.
	SendCommunity map[topo.ASN]bool

	// Propagation is the AS-wide community forwarding mode, overridable
	// per neighbor.
	Propagation            policy.PropagationMode
	PropagationPerNeighbor map[topo.ASN]policy.PropagationMode

	// Catalog lists the community services this AS offers.
	Catalog *policy.Catalog

	// IngressTags are the informational communities added to every route
	// learned from the keyed neighbor: ingress-point location (the AS6
	// LAX/FRA tagging of Figure 1), origin/type tags and customer bundles.
	// They count toward the IOS addition cap.
	IngressTags map[topo.ASN][]bgp.Community

	// MaxPrefixLen rejects announcements more specific than this (0 =
	// unlimited). Blackhole-tagged announcements are exempt up to /32 when
	// the AS offers RTBH, per §7.3 "blackhole announcements typically must
	// be for a /24 or more specific prefix".
	MaxPrefixLen int

	// BlackholeMinLen requires blackhole announcements to be at least this
	// specific (commonly 24, some providers require /32).
	BlackholeMinLen int

	// BlackholeAddNoExport tags accepted blackhole routes with NO_EXPORT,
	// the RFC 7999 recommendation most RTBH deployments follow — the
	// reason blackholing communities travel shorter distances than
	// communities at large (Fig. 5a).
	BlackholeAddNoExport bool

	// CustomerPrefixes is the IRR-derived per-customer allowed prefix
	// list. When ValidateOrigin is set, customer announcements outside the
	// list are rejected.
	CustomerPrefixes map[topo.ASN]*policy.PrefixList
	ValidateOrigin   bool

	// BlackholeBeforeValidate reproduces the §6.3 misconfiguration: the
	// blackhole community is honoured before origin validation runs,
	// enabling hijack-based blackholing.
	BlackholeBeforeValidate bool

	// Transparent suppresses prepending the local ASN on export — IXP
	// route servers are "by convention not on the AS path" (§4.3), which
	// is what makes their communities appear off-path.
	Transparent bool

	// ReflectAll disables Gao-Rexford export filtering, redistributing
	// every best route to every session — route-server semantics.
	ReflectAll bool
}

// nbRoute is one Adj-RIB-Out record: the neighbor plus the handle of the
// route last sent to it. A prefix's records are a run in the router's out
// slab, sorted by neighbor ASN (8 bytes each, no pointer).
type nbRoute struct {
	from topo.ASN
	h    Handle
}

// inEntry is one decision-process candidate (16 bytes, no pointer): a
// route learned from neighbor from, or the locally originated route when
// from is 0. A prefix's candidates are a run in the router's in slab,
// sorted by from, and the slot's best is a copy of the winning one.
//
// The import-derived attributes — relationship, local preference,
// blackhole — live here and not in the route, so a receiver whose import
// policy neither tags nor rewrites an update stores the sender's handle
// itself: one route per export class serves every session and every
// receiver that accepted it unchanged. Readers take next hop (from),
// relationship, local-pref and blackhole from the entry; the route h
// names is authoritative only for prefix, path, communities, origin and
// MED. Router.entryRoute builds the policy.Route a looking glass shows.
//
// hops is the route's AS path hop length (bgp.ASPath.HopLength, capped at
// maxHops), kept in what would be padding so the decision process orders
// candidates by local-pref and path length without reading the arena.
type inEntry struct {
	from topo.ASN
	lp   uint32
	h    Handle
	rel  topo.Rel
	bh   bool
	hops uint16
}

// maxHops is the largest hop length inEntry.hops holds; a longer path
// reads as maxHops, and two candidates at maxHops compare their paths.
const maxHops = 1<<16 - 1

// hopsOf returns inEntry.hops for path.
func hopsOf(path bgp.ASPath) uint16 { return uint16(min(path.HopLength(), maxHops)) }

// entryRoute returns e as a full route: its record's fields, with the
// entry's import-derived attributes laid over them. This is the read
// side of the looking-glass and data-plane paths; the decision and
// export paths never call it.
func (r *Router) entryRoute(e inEntry) *policy.Route {
	rt := r.routes.route(r.routes.rec(e.h))
	rt.NextHopAS, rt.FromRel, rt.LocalPref, rt.Blackhole = e.from, e.rel, e.lp, e.bh
	return &rt
}

// slot is everything a router knows about one prefix (32 bytes, no
// pointer): the Loc-RIB winner by value — best.h is 0 when there is none
// — and the spans of its candidate and advertisement runs. Slots are
// indexed by prefix id and never removed; a slot with no best and two
// empty spans is an absent prefix.
type slot struct {
	best inEntry
	in   span // run in Router.in: candidates, the local origination first
	out  span // run in Router.out: Adj-RIB-Out records
}

// Router is a single-AS BGP speaker.
type Router struct {
	cfg       Config
	neighbors map[topo.ASN]topo.Rel
	nbVersion int

	// routes holds every route the slots and slabs name, and its table
	// names the prefixes: slot id is the state for routes.tbl.At(id). Slot
	// pages are allocated when this router first writes one of their ids,
	// never sized to the table, so a prefix that reaches two routers costs
	// two routers.
	routes  *RouteArena
	slots   slotTable
	in      slab[inEntry]
	out     slab[nbRoute]
	bestLen int
	// locRIB is the longest-prefix-match view (data plane) over slot ids,
	// rebuilt lazily because convergence churns best routes thousands of
	// times between data-plane queries.
	locRIB   *netx.Trie[uint32]
	ribStale bool

	// sealed marks the router as part of a frozen world snapshot: shared
	// read-only across forks, with every mutator panicking (cow.go). ribMu
	// guards the one sanctioned write on a sealed router — the lazy
	// Loc-RIB rebuild in ensureRIB — plus reads of locRIB/ribStale by
	// concurrent cloners.
	sealed bool
	ribMu  sync.Mutex
}

// New constructs a router from cfg on arena a: its routes live in a and
// its slots are indexed by a's prefix table. A simnet.Network builds all
// of its routers on the one arena it owns; a standalone router takes a
// fresh one (NewRouteArena).
func New(cfg Config, a *RouteArena) *Router {
	return &Router{
		cfg:       cfg,
		neighbors: make(map[topo.ASN]topo.Rel),
		routes:    a,
		locRIB:    netx.NewTrie[uint32](),
	}
}

// Table returns the prefix table the router's ids come from: its
// arena's.
func (r *Router) Table() *PrefixTable { return r.routes.tbl }

// lookup resolves p to a slot that exists, for read paths: an unknown
// prefix, or one this router never wrote, is absent.
func (r *Router) lookup(p netip.Prefix) (uint32, *slot) {
	id, ok := r.routes.tbl.Lookup(p.Masked())
	if !ok {
		return 0, nil
	}
	return id, r.slots.at(id)
}

// Config exposes the configuration for inspection by the lab harness.
func (r *Router) Config() *Config { return &r.cfg }

// AddNeighbor registers an eBGP session with the given relationship
// (what the neighbor is to us).
func (r *Router) AddNeighbor(asn topo.ASN, rel topo.Rel) {
	r.mustMutable()
	r.neighbors[asn] = rel
	r.nbVersion++
}

// NeighborVersion counts AddNeighbor calls; engines that cache sorted
// neighbor lists use it to notice sessions added behind their back.
func (r *Router) NeighborVersion() int { return r.nbVersion }

// EnableFullCommunityExport makes the session to neighbor fully
// community-transparent regardless of the AS-wide policy. Route-collector
// peerings are configured this way in practice — "the configuration for
// these peerings is often collector specific and may differ from the
// regular policy of the AS" (§4.3).
func (r *Router) EnableFullCommunityExport(neighbor topo.ASN) {
	r.mustMutable()
	if r.cfg.PropagationPerNeighbor == nil {
		r.cfg.PropagationPerNeighbor = make(map[topo.ASN]policy.PropagationMode)
	}
	r.cfg.PropagationPerNeighbor[neighbor] = policy.PropForwardAll
	if r.cfg.SendCommunity == nil {
		r.cfg.SendCommunity = make(map[topo.ASN]bool)
	}
	r.cfg.SendCommunity[neighbor] = true
	// Per-neighbor export policy changed: invalidate cached ExportHints.
	r.nbVersion++
}

// Neighbors returns all sessions in ascending ASN order.
func (r *Router) Neighbors() []topo.ASN {
	out := make([]topo.ASN, 0, len(r.neighbors))
	for n := range r.neighbors {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// NeighborRel returns the relationship of a neighbor.
func (r *Router) NeighborRel(asn topo.ASN) topo.Rel { return r.neighbors[asn] }

// Originate injects a locally-originated prefix, optionally pre-tagged
// with communities (the attacker's tool in every scenario), and reports
// whether the Loc-RIB changed. The origination is stored as the
// candidate from neighbor 0, which the decision process prefers over
// every learned route.
func (r *Router) Originate(p netip.Prefix, comms ...bgp.Community) bool {
	r.mustMutable()
	rt := policy.NewLocalRoute(p)
	rt.Communities = bgp.NewCommunitySet(comms...)
	id := r.routes.tbl.Intern(rt.Prefix)
	r.storeAdjIn(id, inEntry{lp: rt.LocalPref, h: r.routes.Add(rt), hops: hopsOf(rt.ASPath)})
	return r.decide(id)
}

// WithdrawLocal removes a locally-originated prefix.
func (r *Router) WithdrawLocal(p netip.Prefix) bool {
	r.mustMutable()
	id, st := r.lookup(p)
	if st == nil || !r.withdraw(0, id) {
		return false
	}
	return r.decide(id)
}

// ImportResult describes the fate of a received update for diagnostics.
type ImportResult int

// Import outcomes.
const (
	ImportAccepted ImportResult = iota
	ImportRejectedLoop
	ImportRejectedUnknownNeighbor
	ImportRejectedTooSpecific
	ImportRejectedOriginInvalid
)

// ReceiveUpdate processes an announcement from neighbor `from`: it
// stores the route in the router's arena, the way a sender's export is
// stored, runs ReceiveSharedNoDecide on it and then the decision
// process. It
// returns the import outcome and whether the Loc-RIB best route changed:
// an accepted update replaces the session's candidate, and a rejected
// one withdraws it (RFC 4271 §9's implicit withdraw; §9.1.2 keeps a
// looped route out of the decision).
func (r *Router) ReceiveUpdate(from topo.ASN, in *policy.Route) (ImportResult, bool) {
	r.mustMutable()
	id := r.routes.tbl.Intern(in.Prefix)
	res, changed := r.ReceiveSharedNoDecide(nil, from, id, r.routes.Add(in))
	return res, changed && r.decide(id)
}

// ReceiveSharedNoDecide stores the update h names in the router's arena,
// for the prefix id names, in the Adj-RIB-In without running the
// decision process. It reports the import outcome and whether the
// Adj-RIB-In changed: an accepted update always stores its candidate, and
// a rejected one removes the candidate the session sent before, if any
// (RFC 4271 §9's implicit withdraw). Engines that batch several
// deliveries for one prefix (the delta engine's per-destination inboxes)
// apply them all and then call Decide once per prefix: the final
// candidate set — and therefore the decision — is order-identical to
// deciding after every delivery, while transient intermediate best
// routes (which could only trigger no-op re-exports) are never computed.
//
// The route is read in place: importScan, the import policy, settles
// the outcome, and if the import adds no community the accepted entry
// stores h itself with zero allocation — the fast path the delta engine
// lives on. Only an import that tags the route (blackhole NO_EXPORT, the
// session's ingress tags) stores a route of the router's own (tag),
// through cur, the calling engine worker's cursor on the same arena
// (nil: the arena's spare cursor).
func (r *Router) ReceiveSharedNoDecide(cur *RouteCursor, from topo.ASN, id uint32, h Handle) (ImportResult, bool) {
	r.mustMutable()
	res, e, noExport, tags := r.importScan(from, r.routes.rec(h))
	if res != ImportAccepted {
		return res, r.implicitWithdraw(from, id)
	}
	e.h = h
	if noExport || len(tags) > 0 {
		e.h = r.tag(cur, e, noExport, tags)
	}
	r.storeAdjIn(id, e)
	return ImportAccepted, true
}

// Decide runs the decision process for prefix id and reports whether the
// best route changed. Pair with ReceiveSharedNoDecide / WithdrawNoDecide.
func (r *Router) Decide(id uint32) bool {
	r.mustMutable()
	return r.decide(id)
}

// importScan is the router's import policy, and allocation-free: it
// decides an update from neighbor from — the stored route rc — without
// building a route. It returns the outcome; for an accepted update the
// candidate entry with its import-derived attributes (relationship,
// local-pref, blackhole; the caller sets h), and the communities the
// import adds: NO_EXPORT on an accepted blackhole when the AS follows
// RFC 7999, and the session's ingress tags, cut to the IOS addition cap
// (§6.1).
func (r *Router) importScan(from topo.ASN, rc *record) (ImportResult, inEntry, bool, []bgp.Community) {
	rel, ok := r.neighbors[from]
	if !ok {
		return ImportRejectedUnknownNeighbor, inEntry{}, false, nil
	}
	a := r.routes
	path := a.path(rc.path)
	if path.HasLoop(r.cfg.ASN) {
		return ImportRejectedLoop, inEntry{}, false, nil
	}
	pfx, comms := a.tbl.At(rc.pfx), a.comms.at(rc.comms)
	fromCustomer := rel == topo.RelCustomer

	// An AS offering RTBH honours its own blackhole community and the
	// RFC 7999 well-known one, on prefixes specific enough for it.
	blackholeTagged := false
	if bh, offers := r.cfg.Catalog.BlackholeCommunity(); offers {
		blackholeTagged = comms.Has(bh) || comms.Has(bgp.CommunityBlackhole)
	}
	if blackholeTagged && r.cfg.BlackholeMinLen > 0 && pfx.Bits() < r.cfg.BlackholeMinLen {
		blackholeTagged = false // too coarse for RTBH; treat as ordinary route
	}

	validated := !r.cfg.ValidateOrigin || !fromCustomer || r.cfg.CustomerPrefixes[from].Matches(pfx)
	// §6.3 misconfiguration: blackhole precedence skips validation.
	bh := blackholeTagged && r.cfg.BlackholeBeforeValidate
	if !bh {
		if !validated {
			return ImportRejectedOriginInvalid, inEntry{}, false, nil
		}
		bh = blackholeTagged
	}

	if !bh && r.cfg.MaxPrefixLen > 0 {
		// MaxPrefixLen is the IPv4 hygiene limit; the IPv6 convention is
		// /48 (twice the host-bit headroom).
		limit := r.cfg.MaxPrefixLen
		if pfx.Addr().Is6() {
			limit = 48
		}
		if pfx.Bits() > limit {
			return ImportRejectedTooSpecific, inEntry{}, false, nil
		}
	}

	var lp uint32
	switch {
	case bh:
		lp = LocalPrefBlackhole
	case rel == topo.RelCustomer:
		lp = LocalPrefCustomer
	case rel == topo.RelPeer:
		lp = LocalPrefPeer
	default:
		lp = LocalPrefProvider
	}
	// Community services at ingress (local-pref class; prepend and
	// announce-control act at export).
	for _, svc := range r.cfg.Catalog.Active(comms, fromCustomer) {
		if svc.Kind == policy.SvcLocalPref {
			lp = svc.Param
		}
	}

	// Per-session ingress tagging (Figure 1, AS6 style).
	tags := r.cfg.IngressTags[from]
	if r.cfg.Vendor == VendorCisco && len(tags) > CiscoMaxAddedCommunities {
		tags = tags[:CiscoMaxAddedCommunities]
	}
	return ImportAccepted, inEntry{from: from, rel: rel, lp: lp, bh: bh, hops: hopsOf(path)}, bh && r.cfg.BlackholeAddNoExport, tags
}

// tag stores the route e names again, as a route of the router's own:
// its communities plus NO_EXPORT (if noExport) and tags, and e's
// import-derived attributes. It returns the new route's handle. The set
// is built in the scratch of cur (nil: the arena's spare cursor) and the
// route stored through it; e's route is read, never written.
func (r *Router) tag(cur *RouteCursor, e inEntry, noExport bool, tags []bgp.Community) Handle {
	cur = r.cursor(cur)
	if cur == nil {
		cur = r.routes.borrow()
		defer r.routes.giveBack(cur)
	}
	a := r.routes
	rc := *a.rec(e.h)
	cur.comms = append(cur.comms[:0], a.comms.at(rc.comms)...)
	if noExport {
		cur.comms = cur.comms.Add(bgp.CommunityNoExport)
	}
	for _, c := range tags {
		cur.comms = cur.comms.Add(c)
	}
	rc.comms = a.comms.intern(cur.comms)
	rc.lp, rc.nh, rc.rel, rc.bh = e.lp, e.from, e.rel, e.bh
	return cur.add(rc)
}

// cursor checks that cur, an engine worker's cursor or nil, appends to
// the router's arena.
func (r *Router) cursor(cur *RouteCursor) *RouteCursor {
	if cur != nil && cur.a != r.routes {
		panic(fmt.Sprintf("router: AS%d given a cursor on another arena", r.cfg.ASN))
	}
	return cur
}

// storeAdjIn inserts or replaces the candidate entry for (id, e.from).
func (r *Router) storeAdjIn(id uint32, e inEntry) {
	st := r.slots.grow(id)
	i, found := searchFrom(r.in.view(st.in), e.from)
	if found {
		r.in.set(st.in, i, e)
		return
	}
	r.in.insert(&st.in, i, e)
}

// searchFrom finds from in a candidate run, sorted by neighbor: the index
// of its entry, or where it would go, and whether it is there.
func searchFrom(cands []inEntry, from topo.ASN) (int, bool) {
	lo, hi := 0, len(cands)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); cands[m].from < from {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(cands) && cands[lo].from == from
}

// ReceiveWithdraw processes a withdrawal from a neighbor — WithdrawNoDecide,
// then the decision process — and reports whether the best route changed.
func (r *Router) ReceiveWithdraw(from topo.ASN, p netip.Prefix) bool {
	r.mustMutable()
	id, st := r.lookup(p)
	return st != nil && r.WithdrawNoDecide(from, id) && r.decide(id)
}

// WithdrawNoDecide removes the neighbor's Adj-RIB-In entry for prefix id
// without running the decision process, reporting whether an entry was
// removed; the ReceiveSharedNoDecide batching contract applies.
func (r *Router) WithdrawNoDecide(from topo.ASN, id uint32) bool {
	r.mustMutable()
	return from != 0 && r.withdraw(from, id)
}

// implicitWithdraw applies RFC 4271 §9 to an update the import rejected:
// it still replaces what the session sent before, so the session's
// candidate goes, and it reports whether there was one. An unknown
// session has none.
func (r *Router) implicitWithdraw(from topo.ASN, id uint32) bool {
	_, known := r.neighbors[from]
	return known && r.withdraw(from, id)
}

func (r *Router) withdraw(from topo.ASN, id uint32) bool {
	st := r.slots.at(id)
	if st == nil {
		return false
	}
	i, found := searchFrom(r.in.view(st.in), from)
	if found {
		r.in.remove(&r.slots.mut(id).in, i)
	}
	return found
}

func (r *Router) String() string {
	return fmt.Sprintf("AS%d (%d neighbors, %d prefixes)", r.cfg.ASN, len(r.neighbors), r.bestLen)
}
