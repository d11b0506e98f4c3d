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
// and advertisement runs in two per-router slabs (table.go). The batched
// entry points the delta engine drives — ExportAll, RecordAdvertisedAll,
// ReceiveSharedNoDecide, WithdrawNoDecide, Decide — take the id, so
// convergence hashes no prefix; the single-step, prefix-keyed API
// (ReceiveUpdate, ExportTo, RecordAdvertised, BestRoute, ...) resolves
// the id through the table first and then runs on the same slots. See
// ARCHITECTURE.md, "Router memory layout".
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

// nbRoute is one Adj-RIB-Out record: the neighbor plus the route last
// sent to it. A prefix's records are a run in the router's out slab,
// sorted by neighbor ASN (16 bytes each).
type nbRoute struct {
	from topo.ASN
	rt   *policy.Route
}

// inEntry is one decision-process candidate (24 bytes): a route learned
// from neighbor from, or the locally originated route when from is 0. A
// prefix's candidates are a run in the router's in slab, sorted by from,
// and the slot's best is a copy of the winning one.
//
// The import-derived attributes — relationship, local preference,
// blackhole — live here and not in rt, so a receiver whose import policy
// neither tags nor rewrites an update stores the sender's shared route
// object itself: one AS-path/community slab per export class serves
// every session and every receiver that accepted it unchanged. Readers
// take next hop (from), relationship, local-pref and blackhole from the
// entry; rt is authoritative only for prefix, path, communities, origin
// and MED. Route materialises the policy.Route a looking glass shows.
type inEntry struct {
	from topo.ASN
	lp   uint32
	rel  topo.Rel
	bh   bool
	rt   *policy.Route
}

// Route returns the entry as a full route. Entries whose rt already
// carries the entry's attributes (local originations, and routes the
// mutating import path built privately) are returned as they are;
// interned entries aliasing a shared export object get a private copy.
// This is the read side of the looking-glass and data-plane paths; the
// decision and export paths never call it.
func (e inEntry) Route() *policy.Route {
	rt := e.rt
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

// slot is everything a router knows about one prefix (48 bytes, no heap
// object of its own): the Loc-RIB winner by value — best.rt is nil when
// there is none — and the spans of its candidate and advertisement runs.
// Slots are indexed by prefix id and never removed; a slot with no best
// and two empty spans is an absent prefix.
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
	// two routers.
	tbl     *PrefixTable
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

// New constructs a router from cfg with a prefix table of its own; a
// network moves it onto the shared one with Rebind.
func New(cfg Config) *Router {
	return &Router{
		cfg:       cfg,
		neighbors: make(map[topo.ASN]topo.Rel),
		tbl:       NewPrefixTable(),
		locRIB:    netx.NewTrie[uint32](),
	}
}

// Table returns the prefix table the router's ids come from.
func (r *Router) Table() *PrefixTable { return r.tbl }

// Rebind moves the router onto table t. When t is the router's table, or
// a Clone of it taken since the table last grew, ids agree and only the
// pointer moves (the copy-on-write fork path); otherwise each used slot
// is renumbered through t, interning its prefix.
func (r *Router) Rebind(t *PrefixTable) {
	old := r.tbl
	if t == old {
		return
	}
	r.mustMutable()
	r.tbl = t
	if t.base == old && t.baseLen == old.Len() {
		return
	}
	slots := r.slots
	r.slots = nil
	for id, s := range slots.all() {
		if s.best.rt != nil || s.in.n > 0 || s.out.n > 0 {
			*r.slots.grow(t.Intern(old.At(id))) = *s
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
	r.storeAdjIn(id, inEntry{lp: rt.LocalPref, rt: rt})
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
	res := r.receive(from, id, in, false)
	if res != ImportAccepted {
		return res, false
	}
	return res, r.decide(id)
}

// ReceiveSharedNoDecide stores a shared update for the prefix id names
// (in.Prefix) in the Adj-RIB-In without running the decision process,
// reporting whether the import was accepted. Engines that batch several
// deliveries for one prefix (the delta engine's per-destination inboxes)
// apply them all and then call Decide once per prefix: the final
// candidate set — and therefore the decision — is order-identical to
// deciding after every delivery, while transient intermediate best
// routes (which could only trigger no-op re-exports) are never computed.
func (r *Router) ReceiveSharedNoDecide(from topo.ASN, id uint32, in *policy.Route) ImportResult {
	r.mustMutable()
	return r.receive(from, id, in, true)
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
// For shared inputs it first runs a pure decision pass (importScan): if
// the import neither tags nor rewrites the route, the accepted entry
// aliases the sender's route object with zero allocation — the interned
// fast path the delta engine lives on. An import that adds a community
// (blackhole NO_EXPORT, the session's ingress tags) falls through to the
// classic build-a-private-route path below.
func (r *Router) receive(from topo.ASN, id uint32, in *policy.Route, shared bool) ImportResult {
	rel, ok := r.neighbors[from]
	if !ok {
		return ImportRejectedUnknownNeighbor
	}
	if in.ASPath.HasLoop(r.cfg.ASN) {
		return ImportRejectedLoop
	}
	if shared {
		res, entry, pristine := r.importScan(from, rel, in)
		if res != ImportAccepted {
			return res
		}
		if pristine {
			r.storeAdjIn(id, entry)
			return ImportAccepted
		}
	}
	var rt *policy.Route
	ownComms := true
	if shared {
		cp := *in // slices still alias the shared slabs
		rt = &cp
		ownComms = false
	} else {
		rt = in.Clone()
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

	r.storeAdjIn(id, inEntry{from: from, rel: rel, lp: rt.LocalPref, bh: rt.Blackhole, rt: rt})
	return ImportAccepted
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
// input can be stored as-is. Non-pristine accepted imports are replayed
// by the mutating path in receive; the two must agree, which the
// engine differential tests cross-check (the rounds oracle never takes
// this path).
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

	return ImportAccepted, inEntry{from: from, rel: rel, lp: lp, bh: bh, rt: in}, !mutates
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
