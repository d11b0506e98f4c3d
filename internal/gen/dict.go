package gen

import (
	"bgpworms/internal/bgp"
	"bgpworms/internal/semantics"
)

// This file exports the world's community dictionary ground truth: the
// complete set of communities the generated policies define or attach,
// each with its true usage class. The semantics engine infers
// dictionaries from the wire alone; scoring that inference needs the
// oracle only the generator has.

// TruthDict assembles the ground-truth dictionary from the world's
// current state: every catalog service (including services attack labs
// added after Build), every network-attached informational tag
// (ingress, location, bundling), every origin tag, and the well-known
// values. It is computed on demand, never stored: call it after the
// runs whose policies should count.
func (w *Internet) TruthDict() semantics.Truth {
	t := make(semantics.Truth)
	for _, cat := range w.Catalogs {
		for _, svc := range cat.Services {
			t.Add(svc.Community, semantics.ClassOfService(svc.Kind))
		}
	}
	// IXP route servers publish their own announce/suppress scheme
	// outside the per-AS catalogs.
	for _, rs := range w.RouteServers {
		for _, svc := range rs.Router().Config().Catalog.Services {
			t.Add(svc.Community, semantics.ClassOfService(svc.Kind))
		}
	}
	for c, cl := range w.tagTruth {
		t.Add(c, cl)
	}
	for _, tags := range w.OriginTags {
		for _, c := range tags {
			t.Add(c, semantics.ClassInformational)
		}
	}
	for _, c := range []bgp.Community{
		bgp.CommunityNoExport, bgp.CommunityNoAdvertise,
		bgp.CommunityNoExportSubconfed, bgp.CommunityNoPeer,
		bgp.CommunityBlackhole,
	} {
		t.Add(c, semantics.ClassWellKnown)
	}
	return t
}
