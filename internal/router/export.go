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
	if st == nil || st.best.rt == nil {
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
	// Gao-Rexford: routes from peers/providers go to customers only.
	// Route servers (ReflectAll) redistribute everything.
	fromCustomerOrLocal := best.from == 0 || best.rel == topo.RelCustomer
	if !fromCustomerOrLocal && rel != topo.RelCustomer && !r.cfg.ReflectAll {
		return nil, ExportSuppressedGaoRexford
	}
	// Well-known communities.
	if best.rt.Communities.Has(bgp.CommunityNoAdvertise) {
		return nil, ExportSuppressedNoAdvertise
	}
	if best.rt.Communities.Has(bgp.CommunityNoExport) {
		return nil, ExportSuppressedNoExport
	}
	if best.rt.Communities.Has(bgp.CommunityNoPeer) && rel == topo.RelPeer {
		return nil, ExportSuppressedNoExport
	}

	// Community services owned by this AS, evaluated in catalog order —
	// the order itself resolves announce/no-announce conflicts (§5.3).
	fromCustomer := best.rel == topo.RelCustomer
	prepend := 0
	hasAnnounceTo := false
	announceDecided := false
	announceAllowed := true
	for _, svc := range r.cfg.Catalog.Active(best.rt.Communities, fromCustomer || best.from == 0) {
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

	out := best.rt.Clone()
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

// ExportItem is one session's export outcome from ExportAll: Rt is
// non-nil only when Dec == ExportSent.
type ExportItem struct {
	NB  topo.ASN
	Rt  *policy.Route
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
// share one outbound route object, so a router keeps a single
// AS-path/community slab per (prefix, policy class) export instead of
// one private copy per session. Emitted routes are therefore shared:
// receivers must not mutate them in place (the delta engine pairs this
// with ReceiveSharedNoDecide, whose copy-on-write import honours that
// contract). A class whose first session was last sent exactly what the
// class would build re-emits that recorded object instead of building an
// equal one, so an export that changes nothing allocates nothing. Every
// nbs entry must be a registered neighbor when hints is non-nil; with nil
// hints unknown neighbors emit ExportNothing.
func (r *Router) ExportAll(id uint32, nbs []topo.ASN, hints *ExportHints, buf []ExportItem) []ExportItem {
	st := r.slots.at(id)
	if st == nil || st.best.rt == nil {
		for _, nb := range nbs {
			buf = append(buf, ExportItem{NB: nb, Dec: ExportNothing})
		}
		return buf
	}
	best := st.best
	sent := r.out.view(st.out)
	comms := best.rt.Communities
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
	var path bgp.ASPath
	pathReady := false
	// classes[0] is the stripped-communities class (IOS without
	// send-community); classes[1+mode] applies one of the four
	// propagation modes.
	var classes [1 + 1 + policy.PropStripForeign]*policy.Route
	classRoute := func(idx int, mode policy.PropagationMode, nb topo.ASN) *policy.Route {
		if classes[idx] != nil {
			return classes[idx]
		}
		if idx == 0 {
			mode = policy.PropStripAll
		}
		if i, found := slices.BinarySearchFunc(sent, nb, bySession); found &&
			r.isClassExport(sent[i].rt, best.rt, selfHops, mode) {
			classes[idx] = sent[i].rt
			return classes[idx]
		}
		if !pathReady {
			if selfHops > 0 {
				path = best.rt.ASPath.Prepend(uint32(r.cfg.ASN), selfHops)
			} else {
				// Transparent, no prepending: alias the stored path.
				// Paths are never mutated in place (Prepend copies),
				// so aliasing is content-identical to ExportTo's Clone.
				path = best.rt.ASPath
			}
			pathReady = true
		}
		out := &policy.Route{
			Prefix:    best.rt.Prefix,
			ASPath:    path,
			Origin:    best.rt.Origin,
			MED:       best.rt.MED,
			LocalPref: policy.DefaultLocalPref, // LP is not transitive across eBGP
			NextHopAS: r.cfg.ASN,
		}
		if mode == policy.PropForwardAll {
			// Alias instead of cloning: shared-slab classes are immutable
			// downstream.
			out.Communities = comms
		} else {
			out.Communities = policy.ApplyPropagation(mode, uint16(r.cfg.ASN), comms)
		}
		classes[idx] = out
		return out
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
		buf = append(buf, ExportItem{NB: nb, Rt: classRoute(idx, mode, nb), Dec: ExportSent})
	}
	return buf
}

// isClassExport reports whether old — a route this router advertised
// earlier — is field for field what ExportAll would build now from best
// for an export class: the path prepended selfHops times and the
// communities mode lets through. It allocates nothing.
func (r *Router) isClassExport(old, best *policy.Route, selfHops int, mode policy.PropagationMode) bool {
	if old.Prefix != best.Prefix || old.Origin != best.Origin || old.MED != best.MED ||
		old.LocalPref != policy.DefaultLocalPref || old.NextHopAS != r.cfg.ASN ||
		old.FromRel != topo.RelNone || old.Blackhole {
		return false
	}
	if !old.ASPath.IsPrepend(best.ASPath, uint32(r.cfg.ASN), selfHops) {
		return false
	}
	kept := 0
	for _, c := range best.Communities {
		if !mode.Keeps(uint16(r.cfg.ASN), c) {
			continue
		}
		if kept >= len(old.Communities) || old.Communities[kept] != c {
			return false
		}
		kept++
	}
	return kept == len(old.Communities)
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
	if !had {
		r.out.insert(&st.out, i, nbRoute{from: neighbor, rt: rt})
		return true
	}
	if sameRoute(sent[i].rt, rt) {
		return false
	}
	r.out.set(st.out, i, nbRoute{from: neighbor, rt: rt})
	return true
}

// RecordAdvertisedAll merges a full per-neighbor export round for prefix
// id into the Adj-RIB-Out, calling emit for every session whose
// advertisement actually changed (rt nil = withdraw) — the batch form of
// RecordAdvertised the delta engine drives. items must be ordered by
// neighbor ascending with each session at most once (ExportAll output);
// sessions absent from items keep their recorded state. Items whose Dec
// is not ExportSent count as withdrawals.
func (r *Router) RecordAdvertisedAll(id uint32, items []ExportItem, emit func(nb topo.ASN, rt *policy.Route)) {
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
		case it.Dec != ExportSent || it.Rt == nil:
			if present {
				st = r.slots.mut(id)
				r.out.remove(&st.out, i)
				emit(it.NB, nil)
			}
		case present:
			if !sameRoute(sent[i].rt, it.Rt) {
				r.out.set(st.out, i, nbRoute{from: it.NB, rt: it.Rt})
				emit(it.NB, it.Rt)
			}
		default:
			st = r.slots.grow(id)
			r.out.insert(&st.out, i, nbRoute{from: it.NB, rt: it.Rt})
			emit(it.NB, it.Rt)
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
		return sent[i].rt, true
	}
	return nil, false
}
