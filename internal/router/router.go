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
// themselves live in a RouteArena (arena.go) and the tables hold 32-bit
// handles to them, so no slot or slab page holds a pointer. The batched
// entry points the delta engine drives — ExportAll, RecordAdvertisedAll,
// ReceiveSharedNoDecide, WithdrawNoDecide, Decide — take the id and pass
// routes by handle, so convergence hashes no prefix; the single-step,
// prefix-keyed API (ReceiveUpdate, ExportTo, RecordAdvertised,
// BestRoute, ...) resolves the id through the table first, takes and
// returns *policy.Route, and runs on the same slots. See ARCHITECTURE.md,
// "Router memory layout".
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
// MED. Router.entryRoute materialises the policy.Route a looking glass
// shows.
type inEntry struct {
	from topo.ASN
	lp   uint32
	h    Handle
	rel  topo.Rel
	bh   bool
}

// entryRoute returns e as a full route. Entries whose route already
// carries the entry's attributes (local originations, and routes the
// mutating import path built privately) are returned as they are, read
// only; entries sharing a sender's export route get a private copy.
// This is the read side of the looking-glass and data-plane paths; the
// decision and export paths never call it.
func (r *Router) entryRoute(e inEntry) *policy.Route {
	rt := r.routes.At(e.h)
	if rt.NextHopAS == e.from && rt.FromRel == e.rel && rt.LocalPref == e.lp && rt.Blackhole == e.bh {
		return rt
	}
	out := *rt
	out.NextHopAS = e.from
	out.FromRel = e.rel
	out.LocalPref = e.lp
	out.Blackhole = e.bh
	return &out
}

// slot is everything a router knows about one prefix (40 bytes, no
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

	// tbl names the prefixes; slot id is the state for tbl.At(id). Slot
	// pages are allocated when this router first writes one of their ids,
	// never sized to the table, so a prefix that reaches two routers costs
	// two routers. routes holds every route the slots and slabs name.
	tbl     *PrefixTable
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

// New constructs a router from cfg with a prefix table and a route arena
// of its own; a network moves it onto the shared ones with Rebind.
func New(cfg Config) *Router {
	return &Router{
		cfg:       cfg,
		neighbors: make(map[topo.ASN]topo.Rel),
		tbl:       NewPrefixTable(),
		routes:    NewRouteArena(),
		locRIB:    netx.NewTrie[uint32](),
	}
}

// Table returns the prefix table the router's ids come from.
func (r *Router) Table() *PrefixTable { return r.tbl }

// Rebind moves the router onto table t and arena a. When t is the
// router's table, or a Clone of it taken since the table last grew, ids
// agree, and when a is the router's arena, or a Clone of it taken since
// it last grew, handles agree: then only the pointers move (the
// copy-on-write fork path). Otherwise each used slot is renumbered
// through t, interning its prefix, and each route it names is copied
// into a once under a new handle.
func (r *Router) Rebind(t *PrefixTable, a *RouteArena) {
	oldT, oldA := r.tbl, r.routes
	if t == oldT && a == oldA {
		return
	}
	r.mustMutable()
	r.tbl, r.routes = t, a
	renumber := t != oldT && !(t.base == oldT && t.baseLen == oldT.Len())
	copyRoutes := a != oldA && !(a.base == oldA && a.baseLen == oldA.next.Load())
	if !renumber && !copyRoutes {
		return
	}
	moved := make(map[Handle]Handle)
	move := func(h Handle) Handle {
		if !copyRoutes || h == 0 {
			return h
		}
		nh, ok := moved[h]
		if !ok {
			nh = a.Add(oldA.At(h))
			moved[h] = nh
		}
		return nh
	}
	slots := r.slots
	r.slots = nil
	for id, s := range slots.all() {
		if s.best.h == 0 && s.in.n == 0 && s.out.n == 0 {
			continue
		}
		if renumber {
			id = t.Intern(oldT.At(id))
		}
		st := r.slots.grow(id)
		*st = *s
		st.best.h = move(st.best.h)
		in, out := r.in.run(st.in), r.out.run(st.out)
		for i := range in {
			in[i].h = move(in[i].h)
		}
		for i := range out {
			out[i].h = move(out[i].h)
		}
	}
	r.ribStale = true
}

// lookup resolves p to a slot that exists, for read paths: an unknown
// prefix, or one this router never wrote, is absent.
func (r *Router) lookup(p netip.Prefix) (uint32, *slot) {
	id, ok := r.tbl.Lookup(p.Masked())
	if !ok {
		return 0, nil
	}
	return id, r.slots.at(id)
}

// ASN returns the router's AS number.
func (r *Router) ASN() topo.ASN { return r.cfg.ASN }

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
	id := r.tbl.Intern(rt.Prefix)
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
// the import outcome and whether the Loc-RIB best route changed.
func (r *Router) ReceiveUpdate(from topo.ASN, in *policy.Route) (ImportResult, bool) {
	r.mustMutable()
	id := r.tbl.Intern(in.Prefix)
	res := r.receive(nil, from, id, in, 0)
	if res != ImportAccepted {
		return res, false
	}
	return res, r.decide(id)
}

// ReceiveSharedNoDecide stores the update h names in the router's arena,
// for the prefix id names, in the Adj-RIB-In without running the
// decision process, reporting whether the import was accepted. A route
// the import must tag or rewrite is stored anew through cur, the calling
// engine worker's cursor on the same arena (nil: one handle at a time).
// Engines that batch several deliveries for one prefix (the delta
// engine's per-destination inboxes) apply them all and then call Decide
// once per prefix: the final candidate set — and therefore the decision
// — is order-identical to deciding after every delivery, while transient
// intermediate best routes (which could only trigger no-op re-exports)
// are never computed.
func (r *Router) ReceiveSharedNoDecide(cur *RouteCursor, from topo.ASN, id uint32, h Handle) ImportResult {
	r.mustMutable()
	return r.receive(cur, from, id, r.routes.At(h), h)
}

// Decide runs the decision process for prefix id and reports whether the
// best route changed. Pair with ReceiveSharedNoDecide / WithdrawNoDecide.
func (r *Router) Decide(id uint32) bool {
	r.mustMutable()
	return r.decide(id)
}

// receive runs the import policy for an update and stores the accepted
// candidate in the Adj-RIB-In; callers run the decision process.
//
// A shared input is the arena route named by handle shared (0 for a
// caller's route, which receive never aliases). For shared inputs it
// first runs a pure decision pass (importScan): if the import neither
// tags nor rewrites the route, the accepted entry stores the sender's
// handle with zero allocation — the fast path the delta engine lives on.
// An import that adds a community (blackhole NO_EXPORT, the session's
// ingress tags) falls through to the classic build-a-private-route path
// below, which stores its result in the arena through cur.
func (r *Router) receive(cur *RouteCursor, from topo.ASN, id uint32, in *policy.Route, shared Handle) ImportResult {
	rel, ok := r.neighbors[from]
	if !ok {
		return ImportRejectedUnknownNeighbor
	}
	if in.ASPath.HasLoop(r.cfg.ASN) {
		return ImportRejectedLoop
	}
	if shared != 0 {
		res, entry, pristine := r.importScan(from, rel, in)
		if res != ImportAccepted {
			return res
		}
		if pristine {
			entry.h = shared
			r.storeAdjIn(id, entry)
			return ImportAccepted
		}
	}
	// A shared input's slices stay aliased until a tag copies the set; a
	// caller's route is deep-copied.
	cp := *in
	rt := &cp
	ownComms := shared == 0
	if ownComms {
		rt.ASPath = in.ASPath.Clone()
		rt.Communities = in.Communities.Clone()
	}
	// addComm is the copy-on-write community append: shared routes get a
	// private set the first time this router tags the route.
	addComm := func(c bgp.Community) {
		if !ownComms {
			rt.Communities = rt.Communities.Clone()
			ownComms = true
		}
		rt.Communities = rt.Communities.Add(c)
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

	h, slot := r.newRoute(cur)
	*slot = *rt
	r.storeAdjIn(id, inEntry{from: from, rel: rel, lp: rt.LocalPref, bh: rt.Blackhole, h: h})
	return ImportAccepted
}

// newRoute returns a fresh handle in the router's arena and its zero
// route for the caller to fill, reserved through cur when there is one.
func (r *Router) newRoute(cur *RouteCursor) (Handle, *policy.Route) {
	if cur == nil {
		return r.routes.slot()
	}
	if cur.a != r.routes {
		panic(fmt.Sprintf("router: AS%d given a cursor on another arena", r.cfg.ASN))
	}
	return cur.alloc()
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
// an update without building a route, and reports whether the import is
// pristine — nothing would tag or rewrite the route, so the shared
// input's handle can be stored as-is (the caller sets the entry's h).
// Non-pristine accepted imports are replayed by the mutating path in
// receive; the two must agree, which the engine differential tests
// cross-check (the rounds oracle never takes this path).
func (r *Router) importScan(from topo.ASN, rel topo.Rel, in *policy.Route) (ImportResult, inEntry, bool) {
	fromCustomer := rel == topo.RelCustomer

	blackholeTagged := false
	if r.cfg.Catalog != nil {
		if bh, ok := r.cfg.Catalog.BlackholeCommunity(); ok && in.Communities.Has(bh) {
			blackholeTagged = true
		}
		if !blackholeTagged {
			if _, offers := r.cfg.Catalog.BlackholeCommunity(); offers && in.Communities.Has(bgp.CommunityBlackhole) {
				blackholeTagged = true
			}
		}
	}
	if blackholeTagged && r.cfg.BlackholeMinLen > 0 && in.Prefix.Bits() < r.cfg.BlackholeMinLen {
		blackholeTagged = false
	}

	validated := true
	if r.cfg.ValidateOrigin && fromCustomer {
		if !r.cfg.CustomerPrefixes[from].Matches(in.Prefix) {
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
		if in.Prefix.Addr().Is6() {
			limit = 48
		}
		if in.Prefix.Bits() > limit {
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

	for _, svc := range r.cfg.Catalog.Active(in.Communities, fromCustomer) {
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
