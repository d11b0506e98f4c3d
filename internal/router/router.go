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
// routes by handle, so convergence hashes no prefix; the single-step,
// prefix-keyed API (ReceiveUpdate, ExportTo, BestRoute, ...) resolves
// the id through the table first, takes and returns *policy.Route, and
// runs on the same slots. See ARCHITECTURE.md, "Router memory layout".
package router

import (
	"cmp"
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
type inEntry struct {
	from topo.ASN
	lp   uint32
	h    Handle
	rel  topo.Rel
	bh   bool
}

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
	r.storeAdjIn(id, inEntry{lp: rt.LocalPref, h: r.routes.Add(rt)})
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

// ReceiveUpdate processes an announcement from neighbor `from`. It returns
// the import outcome and whether the Loc-RIB best route changed: an
// accepted update replaces the session's candidate, and a rejected one
// withdraws it (RFC 4271 §9's implicit withdraw; §9.1.2 keeps a looped
// route out of the decision).
func (r *Router) ReceiveUpdate(from topo.ASN, in *policy.Route) (ImportResult, bool) {
	r.mustMutable()
	id := r.routes.tbl.Intern(in.Prefix)
	rel, res := r.admit(from, in.ASPath)
	if res == ImportAccepted {
		res = r.receive(nil, from, rel, id, in, 0)
	}
	if res != ImportAccepted && !r.implicitWithdraw(from, id) {
		return res, false
	}
	return res, r.decide(id)
}

// ReceiveSharedNoDecide stores the update h names in the router's arena,
// for the prefix id names, in the Adj-RIB-In without running the
// decision process. It reports the import outcome and whether the
// Adj-RIB-In changed: an accepted update always stores its candidate, and
// a rejected one removes the candidate the session sent before, if any
// (RFC 4271 §9's implicit withdraw, as in ReceiveUpdate). A route
// the import must tag or rewrite is stored anew through cur, the calling
// engine worker's cursor on the same arena (nil: the arena's spare
// cursor). Engines that batch several deliveries for one prefix (the delta
// engine's per-destination inboxes) apply them all and then call Decide
// once per prefix: the final candidate set — and therefore the decision
// — is order-identical to deciding after every delivery, while transient
// intermediate best routes (which could only trigger no-op re-exports)
// are never computed.
//
// The route is read in place: a pure decision pass (importScan) settles
// the outcome, and if the import neither tags nor rewrites the route,
// the accepted entry stores h itself with zero allocation — the fast
// path the delta engine lives on. Only an import that adds a community
// (blackhole NO_EXPORT, the session's ingress tags) resolves the route
// and builds a private one (receive).
func (r *Router) ReceiveSharedNoDecide(cur *RouteCursor, from topo.ASN, id uint32, h Handle) (ImportResult, bool) {
	r.mustMutable()
	a := r.routes
	rc := a.rec(h)
	rel, res := r.admit(from, a.path(rc.path))
	var entry inEntry
	var pristine bool
	if res == ImportAccepted {
		res, entry, pristine = r.importScan(from, rel, a.tbl.At(rc.pfx), a.comms.at(rc.comms))
	}
	if res != ImportAccepted {
		return res, r.implicitWithdraw(from, id)
	}
	if pristine {
		entry.h = h
		r.storeAdjIn(id, entry)
		return ImportAccepted, true
	}
	in := a.route(rc)
	return r.receive(cur, from, rel, id, &in, h), true
}

// admit runs the session and loop checks every import starts with,
// returning the sender's relationship.
func (r *Router) admit(from topo.ASN, path bgp.ASPath) (topo.Rel, ImportResult) {
	rel, ok := r.neighbors[from]
	if !ok {
		return rel, ImportRejectedUnknownNeighbor
	}
	if path.HasLoop(r.cfg.ASN) {
		return rel, ImportRejectedLoop
	}
	return rel, ImportAccepted
}

// Decide runs the decision process for prefix id and reports whether the
// best route changed. Pair with ReceiveSharedNoDecide / WithdrawNoDecide.
func (r *Router) Decide(id uint32) bool {
	r.mustMutable()
	return r.decide(id)
}

// receive runs the import policy for an update from an admitted session
// and stores the accepted candidate in the Adj-RIB-In, as a route of the
// router's own; callers run the decision process. The input is a
// caller's route, or the arena route named by handle shared, whose path
// and communities ids the new route reuses. A tag is added to a copy of
// the set in the cursor's scratch, and the route is stored through cur
// (nil: the arena's spare cursor).
func (r *Router) receive(cur *RouteCursor, from topo.ASN, rel topo.Rel, id uint32, in *policy.Route, shared Handle) ImportResult {
	cur = r.cursor(cur)
	if cur == nil {
		cur = r.routes.borrow()
		defer r.routes.giveBack(cur)
	}
	// The input's slices are read, never written: the first tag copies
	// the set into the cursor's scratch.
	rt := *in
	tagged := false
	addComm := func(c bgp.Community) {
		if !tagged {
			cur.comms = append(cur.comms[:0], rt.Communities...)
			tagged = true
		}
		cur.comms = cur.comms.Add(c)
		rt.Communities = cur.comms
	}
	rt.NextHopAS = from
	rt.FromRel = rel
	rt.Blackhole = false

	fromCustomer := rel == topo.RelCustomer

	// Determine whether the update triggers our RTBH service.
	blackholeTagged := false
	if r.cfg.Catalog != nil {
		if bh, ok := r.cfg.Catalog.BlackholeCommunity(); ok && rt.Communities.Has(bh) {
			blackholeTagged = true
		}
	}
	// RFC 7999 well-known BLACKHOLE is honoured by ASes offering RTBH.
	if !blackholeTagged && r.cfg.Catalog != nil {
		if _, offers := r.cfg.Catalog.BlackholeCommunity(); offers && rt.Communities.Has(bgp.CommunityBlackhole) {
			blackholeTagged = true
		}
	}
	if blackholeTagged && r.cfg.BlackholeMinLen > 0 && rt.Prefix.Bits() < r.cfg.BlackholeMinLen {
		blackholeTagged = false // too coarse for RTBH; treat as ordinary route
	}

	applyBlackhole := func() {
		rt.Blackhole = true
		rt.LocalPref = LocalPrefBlackhole
		if r.cfg.BlackholeAddNoExport {
			addComm(bgp.CommunityNoExport)
		}
	}

	validated := true
	if r.cfg.ValidateOrigin && fromCustomer {
		pl := r.cfg.CustomerPrefixes[from]
		if !pl.Matches(rt.Prefix) {
			validated = false
		}
	}

	if blackholeTagged && r.cfg.BlackholeBeforeValidate {
		// §6.3 misconfiguration: blackhole precedence skips validation.
		applyBlackhole()
	} else {
		if !validated {
			return ImportRejectedOriginInvalid
		}
		if blackholeTagged {
			applyBlackhole()
		}
	}

	if !rt.Blackhole && r.cfg.MaxPrefixLen > 0 {
		// MaxPrefixLen is the IPv4 hygiene limit; the IPv6 convention is
		// /48 (twice the host-bit headroom).
		limit := r.cfg.MaxPrefixLen
		if rt.Prefix.Addr().Is6() {
			limit = 48
		}
		if rt.Prefix.Bits() > limit {
			return ImportRejectedTooSpecific
		}
	}

	if !rt.Blackhole {
		switch rel {
		case topo.RelCustomer:
			rt.LocalPref = LocalPrefCustomer
		case topo.RelPeer:
			rt.LocalPref = LocalPrefPeer
		default:
			rt.LocalPref = LocalPrefProvider
		}
	}

	// Community services at ingress (local-pref class; prepend and
	// announce-control act at export).
	for _, svc := range r.cfg.Catalog.Active(rt.Communities, fromCustomer) {
		if svc.Kind == policy.SvcLocalPref {
			rt.LocalPref = svc.Param
		}
	}

	// Per-session ingress tagging (Figure 1, AS6 style).
	for added, tag := range r.cfg.IngressTags[from] {
		if !r.allowAdd(added) {
			break
		}
		addComm(tag)
	}

	rc := record{pfx: id, origin: rt.Origin, med: rt.MED, lp: rt.LocalPref, nh: from, rel: rel, bh: rt.Blackhole}
	if shared != 0 {
		src := r.routes.rec(shared)
		rc.path, rc.comms = src.path, src.comms
	} else {
		rc.path, rc.comms = r.routes.pathID(in.ASPath), r.routes.comms.intern(in.Communities)
	}
	if tagged {
		rc.comms = r.routes.comms.intern(rt.Communities)
	}
	r.storeAdjIn(id, inEntry{from: from, rel: rel, lp: rt.LocalPref, bh: rt.Blackhole, h: cur.add(rc)})
	return ImportAccepted
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
	i, found := slices.BinarySearchFunc(r.in.view(st.in), e.from, byFrom)
	if found {
		r.in.set(st.in, i, e)
		return
	}
	r.in.insert(&st.in, i, e)
}

// byFrom orders a candidate run against a neighbor for slices.BinarySearchFunc.
func byFrom(e inEntry, from topo.ASN) int { return cmp.Compare(e.from, from) }

// importScan is the allocation-free decision half of the import policy:
// it computes the outcome, effective local-pref, and blackhole flag for
// an update — its prefix and communities — without building a route,
// and reports whether the import is
// pristine — nothing would tag or rewrite the route, so the shared
// input's handle can be stored as-is (the caller sets the entry's h).
// Non-pristine accepted imports are replayed by the mutating path in
// receive; the two must agree, which TestReceiveSharedMatchesReceiveUpdate
// and the engine's differential tests against the spec oracle, which
// shares neither, cross-check.
func (r *Router) importScan(from topo.ASN, rel topo.Rel, pfx netip.Prefix, comms bgp.CommunitySet) (ImportResult, inEntry, bool) {
	fromCustomer := rel == topo.RelCustomer

	blackholeTagged := false
	if r.cfg.Catalog != nil {
		if bh, ok := r.cfg.Catalog.BlackholeCommunity(); ok && comms.Has(bh) {
			blackholeTagged = true
		}
		if !blackholeTagged {
			if _, offers := r.cfg.Catalog.BlackholeCommunity(); offers && comms.Has(bgp.CommunityBlackhole) {
				blackholeTagged = true
			}
		}
	}
	if blackholeTagged && r.cfg.BlackholeMinLen > 0 && pfx.Bits() < r.cfg.BlackholeMinLen {
		blackholeTagged = false
	}

	validated := true
	if r.cfg.ValidateOrigin && fromCustomer {
		if !r.cfg.CustomerPrefixes[from].Matches(pfx) {
			validated = false
		}
	}

	bh := false
	if blackholeTagged && r.cfg.BlackholeBeforeValidate {
		bh = true
	} else {
		if !validated {
			return ImportRejectedOriginInvalid, inEntry{}, false
		}
		bh = blackholeTagged
	}

	if !bh && r.cfg.MaxPrefixLen > 0 {
		limit := r.cfg.MaxPrefixLen
		if pfx.Addr().Is6() {
			limit = 48
		}
		if pfx.Bits() > limit {
			return ImportRejectedTooSpecific, inEntry{}, false
		}
	}

	var lp uint32
	mutates := false
	if bh {
		lp = LocalPrefBlackhole
		if r.cfg.BlackholeAddNoExport {
			mutates = true
		}
	} else {
		switch rel {
		case topo.RelCustomer:
			lp = LocalPrefCustomer
		case topo.RelPeer:
			lp = LocalPrefPeer
		default:
			lp = LocalPrefProvider
		}
	}

	for _, svc := range r.cfg.Catalog.Active(comms, fromCustomer) {
		if svc.Kind == policy.SvcLocalPref {
			lp = svc.Param
		}
	}
	if len(r.cfg.IngressTags[from]) > 0 {
		mutates = true
	}

	return ImportAccepted, inEntry{from: from, rel: rel, lp: lp, bh: bh}, !mutates
}

// ReceiveWithdraw processes a withdrawal from a neighbor and reports
// whether the best route changed.
func (r *Router) ReceiveWithdraw(from topo.ASN, p netip.Prefix) bool {
	r.mustMutable()
	id, st := r.lookup(p)
	if st == nil || from == 0 || !r.withdraw(from, id) {
		return false
	}
	return r.decide(id)
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
	i, found := slices.BinarySearchFunc(r.in.view(st.in), from, byFrom)
	if found {
		r.in.remove(&r.slots.mut(id).in, i)
	}
	return found
}

// allowAdd enforces the IOS 32-addition cap (§6.1).
func (r *Router) allowAdd(added int) bool {
	return r.cfg.Vendor != VendorCisco || added < CiscoMaxAddedCommunities
}

func (r *Router) String() string {
	return fmt.Sprintf("AS%d (%d neighbors, %d prefixes)", r.cfg.ASN, len(r.neighbors), r.bestLen)
}
