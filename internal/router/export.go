package router

import (
	"net/netip"

	"bgpworms/internal/bgp"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// ExportDecision explains why an export did or did not happen.
type ExportDecision int

// Export outcomes.
const (
	ExportSent ExportDecision = iota
	ExportSuppressedGaoRexford
	ExportSuppressedNoExport
	ExportSuppressedNoAdvertise
	ExportSuppressedService
	ExportNothing
)

// String names the outcome.
func (d ExportDecision) String() string {
	switch d {
	case ExportSent:
		return "sent"
	case ExportSuppressedGaoRexford:
		return "suppressed-gao-rexford"
	case ExportSuppressedNoExport:
		return "suppressed-no-export"
	case ExportSuppressedNoAdvertise:
		return "suppressed-no-advertise"
	case ExportSuppressedService:
		return "suppressed-service"
	default:
		return "nothing"
	}
}

// ExportTo is ExportAll for one session: the route this AS would
// announce to neighbor for prefix p, resolved, and the decision. Its AS
// path and community set are the arena's canonical values: read-only.
//
// Like every export, it stores the route it builds in the router's
// arena, so the router must be mutable: on a sealed router, whose arena
// a fork may have frozen, ExportTo panics before it writes anything.
func (r *Router) ExportTo(neighbor topo.ASN, p netip.Prefix) (*policy.Route, ExportDecision) {
	r.mustMutable()
	id, st := r.lookup(p)
	if st == nil {
		return nil, ExportNothing
	}
	it := r.ExportAll(nil, id, []topo.ASN{neighbor}, nil, nil)[0]
	if it.Dec != ExportSent {
		return nil, it.Dec
	}
	rt := r.routes.route(r.routes.rec(it.H))
	return &rt, ExportSent
}

// ExportItem is one session's export outcome from ExportAll: H names the
// route sent, in the router's arena, and is non-zero only when Dec ==
// ExportSent.
type ExportItem struct {
	NB  topo.ASN
	H   Handle
	Dec ExportDecision
}

// ExportHints carries engine-cached per-neighbor export policy, each
// slice aligned with the nbs argument ExportAll is called with. The
// fields are pure functions of the router's session set and config;
// engines refresh them whenever NeighborVersion changes (which
// EnableFullCommunityExport bumps precisely so collector-transparency
// changes invalidate caches). A nil hints falls back to live lookups.
type ExportHints struct {
	// Rels is the relationship of each neighbor.
	Rels []topo.Rel
	// Strip marks sessions that strip all communities (IOS without
	// send-community, §6.1).
	Strip []bool
	// Mode is the effective propagation mode per session (per-neighbor
	// override or the AS-wide default).
	Mode []policy.PropagationMode
}

// Hints builds the ExportHints for nbs (aligned slices). Engines cache
// the result keyed on NeighborVersion.
func (r *Router) Hints(nbs []topo.ASN) *ExportHints {
	h := &ExportHints{
		Rels:  make([]topo.Rel, len(nbs)),
		Strip: make([]bool, len(nbs)),
		Mode:  make([]policy.PropagationMode, len(nbs)),
	}
	for i, nb := range nbs {
		h.Rels[i], h.Strip[i], h.Mode[i] = r.session(nb)
	}
	return h
}

// session returns the export policy of the session to nb, what Hints
// caches: the neighbor's relationship, whether the session strips all
// communities (IOS without send-community, §6.1), and its propagation
// mode (the per-neighbor override or the AS-wide default).
func (r *Router) session(nb topo.ASN) (topo.Rel, bool, policy.PropagationMode) {
	mode := r.cfg.Propagation
	if m, ok := r.cfg.PropagationPerNeighbor[nb]; ok {
		mode = m
	}
	return r.neighbors[nb], r.cfg.Vendor == VendorCisco && !r.cfg.SendCommunity[nb], mode
}

// ExportAll is the router's export policy. It computes the export of
// prefix id toward every neighbor in nbs, appending one ExportItem per
// neighbor to buf in nbs order: Gao-Rexford export rules, well-known
// communities, selective-announcement services, prepending services,
// vendor community handling and propagation mode. The
// neighbor-independent work (best-route lookup, service-catalog scan,
// AS-path prepending, community propagation) is done once per call, not
// once per session: neighbors with the same effective community policy
// share one outbound route per (prefix, policy class). The class's path
// and communities are assembled in the scratch of cur, the calling engine
// worker's cursor (nil: the arena's spare one), and interned, so content
// the network already holds costs no allocation; its route is stored in
// the router's arena through cur and emitted by handle. A class whose
// first session was last sent exactly the record the class would store
// re-emits that recorded handle, so an export that changes nothing
// stores nothing. Every nbs entry must be a registered neighbor when
// hints is non-nil; with nil hints unknown neighbors emit ExportNothing.
func (r *Router) ExportAll(cur *RouteCursor, id uint32, nbs []topo.ASN, hints *ExportHints, buf []ExportItem) []ExportItem {
	st := r.slots.at(id)
	if st == nil || st.best.h == 0 {
		for _, nb := range nbs {
			buf = append(buf, ExportItem{NB: nb, Dec: ExportNothing})
		}
		return buf
	}
	cur = r.cursor(cur)
	if cur == nil {
		cur = r.routes.borrow()
		defer r.routes.giveBack(cur)
	}
	best := st.best
	a := r.routes
	bestRc := *a.rec(best.h)
	sent := r.out.view(st.out)
	comms := a.comms.at(bestRc.comms)
	fromCustomerOrLocal := best.from == 0 || best.rel == topo.RelCustomer
	noAdv := comms.Has(bgp.CommunityNoAdvertise)
	noExp := comms.Has(bgp.CommunityNoExport)
	noPeer := comms.Has(bgp.CommunityNoPeer)

	// Service scan, neighbor-independent: catalog order still resolves
	// announce/no-announce conflicts (§5.3), and SvcNoExport suppresses
	// everything, so later services are irrelevant.
	prepend := 0
	suppressAll := false
	var annCtl []policy.Service
	for _, svc := range r.cfg.Catalog.Active(comms, fromCustomerOrLocal) {
		switch svc.Kind {
		case policy.SvcNoExport:
			suppressAll = true
		case policy.SvcNoAnnounceTo, policy.SvcAnnounceTo:
			annCtl = append(annCtl, svc)
		case policy.SvcPrepend:
			if prepend == 0 {
				prepend = int(svc.Param)
			}
		}
		if suppressAll {
			break
		}
	}

	selfHops := 1 + prepend
	if r.cfg.Transparent {
		selfHops = prepend // route servers stay off the AS path
	}
	path := uint32(0)
	pathReady := false
	// classes[0] is the stripped-communities class (IOS without
	// send-community); classes[1+mode] applies one of the four
	// propagation modes.
	var classes [1 + 1 + policy.PropStripForeign]Handle
	classRoute := func(idx int, mode policy.PropagationMode, nb topo.ASN) Handle {
		if classes[idx] != 0 {
			return classes[idx]
		}
		if idx == 0 {
			mode = policy.PropStripAll
		}
		if !pathReady {
			path = cur.prepend(bestRc.path, uint32(r.cfg.ASN), selfHops)
			pathReady = true
		}
		rc := record{
			pfx:    bestRc.pfx,
			path:   path,
			comms:  cur.kept(bestRc.comms, mode, uint16(r.cfg.ASN)),
			origin: bestRc.origin,
			med:    bestRc.med,
			lp:     policy.DefaultLocalPref, // LP is not transitive across eBGP
			nh:     r.cfg.ASN,
		}
		if i, found := searchSession(sent, nb); found && *a.rec(sent[i].h) == rc {
			classes[idx] = sent[i].h
		} else {
			classes[idx] = cur.add(rc)
		}
		return classes[idx]
	}

	for ni, nb := range nbs {
		var rel topo.Rel
		var strip bool
		var mode policy.PropagationMode
		if hints != nil {
			rel, strip, mode = hints.Rels[ni], hints.Strip[ni], hints.Mode[ni]
		} else if _, ok := r.neighbors[nb]; ok {
			rel, strip, mode = r.session(nb)
		} else {
			buf = append(buf, ExportItem{NB: nb, Dec: ExportNothing})
			continue
		}
		dec := ExportSent
		switch {
		case best.from == nb:
			dec = ExportSuppressedGaoRexford // never back to its sender
		case !fromCustomerOrLocal && rel != topo.RelCustomer && !r.cfg.ReflectAll:
			// Routes from peers and providers go to customers only; route
			// servers (ReflectAll) redistribute everything.
			dec = ExportSuppressedGaoRexford
		case noAdv:
			dec = ExportSuppressedNoAdvertise
		case noExp || (noPeer && rel == topo.RelPeer):
			dec = ExportSuppressedNoExport
		case suppressAll || !announced(annCtl, nb):
			dec = ExportSuppressedService
		}
		if dec != ExportSent {
			buf = append(buf, ExportItem{NB: nb, Dec: dec})
			continue
		}
		idx := 0
		if !strip {
			idx = 1 + int(mode)
		}
		buf = append(buf, ExportItem{NB: nb, H: classRoute(idx, mode, nb), Dec: ExportSent})
	}
	return buf
}

// ExportsNothing reports whether ExportAll for prefix id would send
// nothing and RecordAdvertisedAll would then withdraw nothing, so the
// export need not run at all: the prefix's Adj-RIB-Out run is empty and
// its best route is absent, or was learned from a peer or provider at a
// router that is no route server (ReflectAll) and has no customer
// session — ExportAll's Gao-Rexford rule keeps such a route from every
// session. hasCustomer says whether any session the export would be
// offered to is to a customer. It reads only the prefix's slot and the
// config, so it answers for the state the last Decide left.
func (r *Router) ExportsNothing(id uint32, hasCustomer bool) bool {
	st := r.slots.at(id)
	if st == nil {
		return true
	}
	if st.out.n() != 0 {
		return false
	}
	best := st.best
	return best.h == 0 || best.from != 0 && best.rel != topo.RelCustomer && !r.cfg.ReflectAll && !hasCustomer
}

// announced reports whether the announce-control services ctl, in
// catalog order, let a route go to nb: the first service naming nb
// decides, and a route with announce-to targets goes to none it does not
// name (selective announcement).
func announced(ctl []policy.Service, nb topo.ASN) bool {
	targeted := false
	for _, svc := range ctl {
		if topo.ASN(svc.Param) == nb {
			return svc.Kind == policy.SvcAnnounceTo
		}
		targeted = targeted || svc.Kind == policy.SvcAnnounceTo
	}
	return !targeted
}

// searchSession finds nb in an Adj-RIB-Out run, sorted by neighbor: the
// index of its record, or where it would go, and whether it is there.
func searchSession(sent []nbRoute, nb topo.ASN) (int, bool) {
	lo, hi := 0, len(sent)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); sent[m].from < nb {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(sent) && sent[lo].from == nb
}

// RecordAdvertisedAll merges a full per-neighbor export round for prefix
// id into the Adj-RIB-Out, calling emit for every session whose
// advertisement actually changed (h 0 = withdraw), so the engine
// delivers only genuine changes. items must be ordered by
// neighbor ascending with each session at most once (ExportAll output);
// sessions absent from items keep their recorded state. Items whose Dec
// is not ExportSent count as withdrawals.
func (r *Router) RecordAdvertisedAll(id uint32, items []ExportItem, emit func(nb topo.ASN, h Handle)) {
	r.mustMutable()
	// st is nil until the slot exists (withdrawals never create one) and
	// read-only until the first write takes it through mut or grow.
	st := r.slots.at(id)
	i := 0 // items and records both ascend by neighbor: one merge pass
	for _, it := range items {
		var sent []nbRoute
		if st != nil {
			sent = r.out.view(st.out)
		}
		for i < len(sent) && sent[i].from < it.NB {
			i++
		}
		present := i < len(sent) && sent[i].from == it.NB
		switch {
		case it.Dec != ExportSent || it.H == 0:
			if present {
				st = r.slots.mut(id)
				r.out.remove(&st.out, i)
				emit(it.NB, 0)
			}
		case present:
			if !sameStored(r.routes, sent[i].h, it.H) {
				r.out.set(st.out, i, nbRoute{from: it.NB, h: it.H})
				emit(it.NB, it.H)
			}
		default:
			st = r.slots.grow(id)
			r.out.insert(&st.out, i, nbRoute{from: it.NB, h: it.H})
			emit(it.NB, it.H)
		}
	}
}

// Advertised returns the last route recorded as sent to neighbor for p.
func (r *Router) Advertised(neighbor topo.ASN, p netip.Prefix) (*policy.Route, bool) {
	_, st := r.lookup(p)
	if st == nil {
		return nil, false
	}
	sent := r.out.view(st.out)
	if i, found := searchSession(sent, neighbor); found {
		rt := r.routes.route(r.routes.rec(sent[i].h))
		return &rt, true
	}
	return nil, false
}
