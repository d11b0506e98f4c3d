package router

import (
	"cmp"
	"net/netip"
	"slices"

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

// ExportTo computes the route this AS would announce to neighbor for
// prefix p, applying Gao-Rexford export rules, well-known communities,
// selective-announcement services, prepending services, vendor community
// handling and propagation mode.
//
// The returned route is a fresh copy safe for the receiver to mutate.
func (r *Router) ExportTo(neighbor topo.ASN, p netip.Prefix) (*policy.Route, ExportDecision) {
	_, st := r.lookup(p)
	if st == nil || st.best.h == 0 {
		return nil, ExportNothing
	}
	return r.exportTo(neighbor, st.best)
}

// exportTo is ExportTo for a resolved best entry.
func (r *Router) exportTo(neighbor topo.ASN, best inEntry) (*policy.Route, ExportDecision) {
	rel, ok := r.neighbors[neighbor]
	if !ok {
		return nil, ExportNothing
	}
	// Never send a route back to the neighbor we learned it from.
	if best.from == neighbor {
		return nil, ExportSuppressedGaoRexford
	}
	rt := r.routes.route(r.routes.rec(best.h))
	// Gao-Rexford: routes from peers/providers go to customers only.
	// Route servers (ReflectAll) redistribute everything.
	fromCustomerOrLocal := best.from == 0 || best.rel == topo.RelCustomer
	if !fromCustomerOrLocal && rel != topo.RelCustomer && !r.cfg.ReflectAll {
		return nil, ExportSuppressedGaoRexford
	}
	// Well-known communities.
	if rt.Communities.Has(bgp.CommunityNoAdvertise) {
		return nil, ExportSuppressedNoAdvertise
	}
	if rt.Communities.Has(bgp.CommunityNoExport) {
		return nil, ExportSuppressedNoExport
	}
	if rt.Communities.Has(bgp.CommunityNoPeer) && rel == topo.RelPeer {
		return nil, ExportSuppressedNoExport
	}

	// Community services owned by this AS, evaluated in catalog order —
	// the order itself resolves announce/no-announce conflicts (§5.3).
	fromCustomer := best.rel == topo.RelCustomer
	prepend := 0
	hasAnnounceTo := false
	announceDecided := false
	announceAllowed := true
	for _, svc := range r.cfg.Catalog.Active(rt.Communities, fromCustomer || best.from == 0) {
		switch svc.Kind {
		case policy.SvcNoExport:
			return nil, ExportSuppressedService
		case policy.SvcNoAnnounceTo:
			if topo.ASN(svc.Param) == neighbor && !announceDecided {
				announceAllowed = false
				announceDecided = true
			}
		case policy.SvcAnnounceTo:
			hasAnnounceTo = true
			if topo.ASN(svc.Param) == neighbor && !announceDecided {
				announceAllowed = true
				announceDecided = true
			}
		case policy.SvcPrepend:
			if prepend == 0 {
				prepend = int(svc.Param)
			}
		}
	}
	if announceDecided && !announceAllowed {
		return nil, ExportSuppressedService
	}
	if !announceDecided && hasAnnounceTo {
		// Selective announcement: targets were named and this neighbor is
		// not among them.
		return nil, ExportSuppressedService
	}

	out := rt.Clone()
	selfHops := 1 + prepend
	if r.cfg.Transparent {
		selfHops = prepend // route servers stay off the AS path
	}
	out.ASPath = out.ASPath.Prepend(r.cfg.ASN, selfHops)
	out.LocalPref = policy.DefaultLocalPref // LP is not transitive across eBGP
	out.Blackhole = false                   // the *receiver* decides to null-route
	out.NextHopAS = r.cfg.ASN
	out.FromRel = topo.RelNone

	// Vendor default: IOS without send-community strips everything (§6.1).
	if r.cfg.Vendor == VendorCisco && !r.cfg.SendCommunity[neighbor] {
		out.Communities = nil
	} else {
		mode := r.cfg.Propagation
		if m, ok := r.cfg.PropagationPerNeighbor[neighbor]; ok {
			mode = m
		}
		out.Communities = policy.ApplyPropagation(mode, uint16(r.cfg.ASN), out.Communities)
	}
	return out, ExportSent
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
		h.Rels[i] = r.neighbors[nb]
		h.Strip[i] = r.cfg.Vendor == VendorCisco && !r.cfg.SendCommunity[nb]
		h.Mode[i] = r.cfg.Propagation
		if m, ok := r.cfg.PropagationPerNeighbor[nb]; ok {
			h.Mode[i] = m
		}
	}
	return h
}

// ExportAll computes the export of prefix id toward every neighbor in
// nbs, appending one ExportItem per neighbor to buf — exactly what
// ExportTo would decide and build, in nbs order — while doing the
// neighbor-independent work (best-route lookup, service-catalog scan,
// AS-path prepending, community propagation) once per call instead of
// once per session. Neighbors with the same effective community policy
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
	// announce/no-announce conflicts (§5.3) — the first service naming a
	// neighbor decides for it, and SvcNoExport suppresses everything
	// (ExportTo returns at that service, so later ones are irrelevant).
	prepend := 0
	suppressAll := false
	hasAnnounceTo := false
	var annCtl []policy.Service
	for _, svc := range r.cfg.Catalog.Active(comms, fromCustomerOrLocal) {
		switch svc.Kind {
		case policy.SvcNoExport:
			suppressAll = true
		case policy.SvcNoAnnounceTo, policy.SvcAnnounceTo:
			if svc.Kind == policy.SvcAnnounceTo {
				hasAnnounceTo = true
			}
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
		if i, found := slices.BinarySearchFunc(sent, nb, bySession); found && *a.rec(sent[i].h) == rc {
			classes[idx] = sent[i].h
		} else {
			classes[idx] = cur.add(rc)
		}
		return classes[idx]
	}

	for ni, nb := range nbs {
		var rel topo.Rel
		if hints != nil {
			rel = hints.Rels[ni]
		} else {
			var ok bool
			rel, ok = r.neighbors[nb]
			if !ok {
				buf = append(buf, ExportItem{NB: nb, Dec: ExportNothing})
				continue
			}
		}
		if best.from == nb {
			buf = append(buf, ExportItem{NB: nb, Dec: ExportSuppressedGaoRexford})
			continue
		}
		if !fromCustomerOrLocal && rel != topo.RelCustomer && !r.cfg.ReflectAll {
			buf = append(buf, ExportItem{NB: nb, Dec: ExportSuppressedGaoRexford})
			continue
		}
		if noAdv {
			buf = append(buf, ExportItem{NB: nb, Dec: ExportSuppressedNoAdvertise})
			continue
		}
		if noExp || (noPeer && rel == topo.RelPeer) {
			buf = append(buf, ExportItem{NB: nb, Dec: ExportSuppressedNoExport})
			continue
		}
		if suppressAll {
			buf = append(buf, ExportItem{NB: nb, Dec: ExportSuppressedService})
			continue
		}
		if len(annCtl) > 0 {
			decided, allowed := false, true
			for _, svc := range annCtl {
				if topo.ASN(svc.Param) == nb {
					allowed = svc.Kind == policy.SvcAnnounceTo
					decided = true
					break
				}
			}
			if (decided && !allowed) || (!decided && hasAnnounceTo) {
				buf = append(buf, ExportItem{NB: nb, Dec: ExportSuppressedService})
				continue
			}
		}

		var strip bool
		var mode policy.PropagationMode
		if hints != nil {
			strip, mode = hints.Strip[ni], hints.Mode[ni]
		} else {
			strip = r.cfg.Vendor == VendorCisco && !r.cfg.SendCommunity[nb]
			mode = r.cfg.Propagation
			if m, ok := r.cfg.PropagationPerNeighbor[nb]; ok {
				mode = m
			}
		}
		idx := 0
		if !strip {
			idx = 1 + int(mode)
		}
		buf = append(buf, ExportItem{NB: nb, H: classRoute(idx, mode, nb), Dec: ExportSent})
	}
	return buf
}

// bySession orders an Adj-RIB-Out run against a neighbor for
// slices.BinarySearchFunc.
func bySession(e nbRoute, nb topo.ASN) int { return cmp.Compare(e.from, nb) }

// RecordAdvertised stores what was last sent to a neighbor, letting the
// simulator deliver only genuine changes. It returns true when the new
// announcement differs from the previous one. It is the single-step
// reference RecordAdvertisedAll's merge is checked against (the rounds
// oracle drives it), so it shares the slots with it and no code.
func (r *Router) RecordAdvertised(neighbor topo.ASN, p netip.Prefix, rt *policy.Route) bool {
	r.mustMutable()
	if rt == nil {
		id, st := r.lookup(p)
		if st == nil {
			return false // nothing recorded, and a withdrawal interns nothing
		}
		i, had := slices.BinarySearchFunc(r.out.view(st.out), neighbor, bySession)
		if had {
			r.out.remove(&r.slots.mut(id).out, i)
		}
		return had
	}
	st := r.slots.grow(r.tbl.Intern(p.Masked()))
	sent := r.out.view(st.out)
	i, had := slices.BinarySearchFunc(sent, neighbor, bySession)
	rc := r.routes.record(rt)
	if had && r.routes.sameRecord(r.routes.rec(sent[i].h), &rc) {
		return false
	}
	nr := nbRoute{from: neighbor, h: r.routes.store(rc)}
	if had {
		r.out.set(st.out, i, nr)
	} else {
		r.out.insert(&st.out, i, nr)
	}
	return true
}

// RecordAdvertisedAll merges a full per-neighbor export round for prefix
// id into the Adj-RIB-Out, calling emit for every session whose
// advertisement actually changed (h 0 = withdraw) — the batch form of
// RecordAdvertised the delta engine drives. items must be ordered by
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
	if i, found := slices.BinarySearchFunc(sent, neighbor, bySession); found {
		rt := r.routes.route(r.routes.rec(sent[i].h))
		return &rt, true
	}
	return nil, false
}
