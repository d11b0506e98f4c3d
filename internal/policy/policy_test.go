package policy

import (
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/topo"
)

func TestPrefixRuleSemantics(t *testing.T) {
	cases := []struct {
		rule  PrefixRule
		pfx   string
		want  bool
		label string
	}{
		{PrefixRule{Prefix: netx.MustPrefix("10.0.0.0/8")}, "10.0.0.0/8", true, "exact"},
		{PrefixRule{Prefix: netx.MustPrefix("10.0.0.0/8")}, "10.1.0.0/16", false, "exact rejects longer"},
		{PrefixRule{Prefix: netx.MustPrefix("10.0.0.0/8"), Ge: 9, Le: 24}, "10.1.0.0/16", true, "range"},
		{PrefixRule{Prefix: netx.MustPrefix("10.0.0.0/8"), Ge: 9, Le: 24}, "10.1.1.0/25", false, "over le"},
		{PrefixRule{Prefix: netx.MustPrefix("10.0.0.0/8"), Ge: 16}, "10.1.2.3/32", true, "ge only opens to host"},
		{PrefixRule{Prefix: netx.MustPrefix("10.0.0.0/8"), Ge: 16}, "10.0.0.0/12", false, "under ge"},
		{PrefixRule{Prefix: netx.MustPrefix("10.0.0.0/8"), Ge: 9, Le: 24}, "11.0.0.0/16", false, "outside"},
	}
	for _, c := range cases {
		if got := c.rule.Matches(netx.MustPrefix(c.pfx)); got != c.want {
			t.Errorf("%s: Matches(%s)=%v want %v", c.label, c.pfx, got, c.want)
		}
	}
}

func TestPrefixListFirstMatch(t *testing.T) {
	var l PrefixList
	l.AddRange(netx.MustPrefix("192.0.2.0/24"), 0, 0).AddRange(netx.MustPrefix("10.0.0.0/8"), 8, 24)
	if !l.Matches(netx.MustPrefix("192.0.2.0/24")) || !l.Matches(netx.MustPrefix("10.2.0.0/16")) {
		t.Fatal("expected matches")
	}
	if l.Matches(netx.MustPrefix("172.16.0.0/12")) {
		t.Fatal("unexpected match")
	}
	var nilList *PrefixList
	if nilList.Matches(netx.MustPrefix("10.0.0.0/8")) {
		t.Fatal("nil list matches nothing")
	}
}

func mkRoute() *Route {
	r := NewLocalRoute(netx.MustPrefix("203.0.113.0/24"))
	r.ASPath = bgp.Path(64500, 64501)
	r.Communities = bgp.NewCommunitySet(bgp.C(64500, 100))
	r.NextHopAS = 64500
	r.FromRel = topo.RelCustomer
	return r
}

func TestRouteCloneIndependence(t *testing.T) {
	r := mkRoute()
	c := r.Clone()
	c.Communities = c.Communities.Add(bgp.C(1, 1))
	c.ASPath = c.ASPath.Prepend(9, 1)
	c.LocalPref = 50
	if r.Communities.Has(bgp.C(1, 1)) || r.ASPath.HopLength() != 2 || r.LocalPref != DefaultLocalPref {
		t.Fatal("clone aliases original")
	}
}

func TestCatalogLookupAndOrder(t *testing.T) {
	cat := NewCatalog(65001).
		Add(Service{Community: bgp.C(65001, 0), Kind: SvcNoAnnounceTo, Param: 7}).
		Add(Service{Community: bgp.C(65001, 1), Kind: SvcAnnounceTo, Param: 7}).
		Add(Service{Community: bgp.C(65001, 666), Kind: SvcBlackhole})

	if _, ok := cat.Lookup(bgp.C(65001, 2)); ok {
		t.Fatal("unexpected service")
	}
	if s, ok := cat.Lookup(bgp.C(65001, 666)); !ok || s.Kind != SvcBlackhole {
		t.Fatal("blackhole lookup failed")
	}
	bh, ok := cat.BlackholeCommunity()
	if !ok || bh != bgp.C(65001, 666) {
		t.Fatal("BlackholeCommunity failed")
	}
	cs := bgp.NewCommunitySet(bgp.C(65001, 0), bgp.C(65001, 1))
	active := cat.Active(cs, true)
	if len(active) != 2 || active[0].Kind != SvcNoAnnounceTo {
		t.Fatalf("Active order wrong: %v", active)
	}

	var nilCat *Catalog
	if _, ok := nilCat.Lookup(bgp.C(1, 1)); ok {
		t.Fatal("nil catalog lookup")
	}
	if nilCat.Active(cs, true) != nil {
		t.Fatal("nil catalog active")
	}
	if _, ok := nilCat.BlackholeCommunity(); ok {
		t.Fatal("nil catalog blackhole")
	}
}

func TestCatalogCustomerOnlyGating(t *testing.T) {
	cat := NewCatalog(65001).Add(Service{
		Community: bgp.C(65001, 80), Kind: SvcLocalPref, Param: 80, CustomerOnly: true,
	})
	cs := bgp.NewCommunitySet(bgp.C(65001, 80))
	if got := cat.Active(cs, false); len(got) != 0 {
		t.Fatal("non-customer must not trigger CustomerOnly service")
	}
	if got := cat.Active(cs, true); len(got) != 1 {
		t.Fatal("customer must trigger service")
	}
}

func TestApplyPropagationModes(t *testing.T) {
	cs := bgp.NewCommunitySet(bgp.C(100, 1), bgp.C(200, 2), bgp.CommunityBlackhole)
	if got := ApplyPropagation(PropForwardAll, 100, cs); len(got) != 3 {
		t.Fatalf("forward-all: %v", got)
	}
	if got := ApplyPropagation(PropStripAll, 100, cs); len(got) != 0 {
		t.Fatalf("strip-all: %v", got)
	}
	got := ApplyPropagation(PropActStripOwn, 100, cs)
	if got.Has(bgp.C(100, 1)) || !got.Has(bgp.C(200, 2)) || !got.Has(bgp.CommunityBlackhole) {
		t.Fatalf("act-strip-own: %v", got)
	}
	got = ApplyPropagation(PropStripForeign, 100, cs)
	if !got.Has(bgp.C(100, 1)) || got.Has(bgp.C(200, 2)) || !got.Has(bgp.CommunityBlackhole) {
		t.Fatalf("strip-foreign: %v", got)
	}
	// Original untouched.
	if len(cs) != 3 {
		t.Fatal("ApplyPropagation mutated input")
	}
}

func TestKindAndModeStrings(t *testing.T) {
	kinds := []ServiceKind{SvcBlackhole, SvcPrepend, SvcLocalPref, SvcAnnounceTo, SvcNoAnnounceTo, SvcNoExport, ServiceKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	modes := []PropagationMode{PropForwardAll, PropStripAll, PropActStripOwn, PropStripForeign, PropagationMode(99)}
	for _, m := range modes {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
}
