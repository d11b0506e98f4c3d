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

func TestCommunityPatterns(t *testing.T) {
	exact := CommunityPattern{ASN: 3320, Value: 666}
	anyValue := CommunityPattern{ASN: 3320, AnyValue: true}
	anyASN := CommunityPattern{Value: 666, AnyASN: true}
	cases := []struct {
		pat  CommunityPattern
		comm bgp.Community
		want bool
	}{
		{exact, bgp.C(3320, 666), true},
		{exact, bgp.C(3320, 667), false},
		{anyValue, bgp.C(3320, 1), true},
		{anyValue, bgp.C(3321, 1), false},
		{anyASN, bgp.C(1, 666), true},
		{anyASN, bgp.C(1, 665), false},
		{CommunityPattern{AnyASN: true, AnyValue: true}, bgp.C(9, 9), true},
	}
	for _, c := range cases {
		if got := c.pat.Matches(c.comm); got != c.want {
			t.Errorf("%+v vs %s: %v want %v", c.pat, c.comm, got, c.want)
		}
	}
}

func TestCommunityListMatchFilter(t *testing.T) {
	l := CommunityList{Patterns: []CommunityPattern{{ASN: 10, Value: 1}, {ASN: 20, AnyValue: true}}}
	cs := bgp.NewCommunitySet(bgp.C(10, 1), bgp.C(20, 5), bgp.C(30, 9))
	if !l.MatchesAny(cs) {
		t.Fatal("should match")
	}
	if l.MatchesAny(bgp.NewCommunitySet(bgp.C(30, 9))) {
		t.Fatal("30:9 matches neither pattern")
	}
	var nilList *CommunityList
	if nilList.MatchesAny(cs) {
		t.Fatal("nil list matches nothing")
	}
}

// Uint32 returns a pointer to v, for SetLocalPref literals.
func Uint32(v uint32) *uint32 { return &v }

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

func TestRouteMapBasicPermitDeny(t *testing.T) {
	rm := &RouteMap{Terms: []Term{
		{Name: "deny-long", MatchMinLen: 25, Deny: true},
		{Name: "tag", AddCommunities: []bgp.Community{bgp.C(9, 9)}},
	}}
	r := mkRoute()
	if !rm.Apply(r, 65001) {
		t.Fatal("should accept /24")
	}
	if !r.Communities.Has(bgp.C(9, 9)) {
		t.Fatal("tag term not applied")
	}
	long := NewLocalRoute(netx.MustPrefix("203.0.113.0/28"))
	if rm.Apply(long, 65001) {
		t.Fatal("should reject /28")
	}
}

func TestRouteMapDefaultDeny(t *testing.T) {
	pl := (&PrefixList{}).AddRange(netx.MustPrefix("192.0.2.0/24"), 0, 0)
	rm := &RouteMap{DefaultDeny: true, Terms: []Term{{Name: "cust", MatchPrefix: pl}}}
	ok := rm.Apply(NewLocalRoute(netx.MustPrefix("192.0.2.0/24")), 1)
	if !ok {
		t.Fatal("listed prefix should pass")
	}
	if rm.Apply(NewLocalRoute(netx.MustPrefix("198.51.100.0/24")), 1) {
		t.Fatal("unlisted prefix should be dropped by default-deny")
	}
	var nilMap *RouteMap
	if !nilMap.Apply(mkRoute(), 1) {
		t.Fatal("nil route-map accepts")
	}
}

func TestRouteMapSetActions(t *testing.T) {
	del := CommunityList{Patterns: []CommunityPattern{{ASN: 64500, AnyValue: true}}}
	rm := &RouteMap{Terms: []Term{{
		SetLocalPref:      Uint32(250),
		AddCommunities:    []bgp.Community{bgp.C(1, 2)},
		DeleteCommunities: &del,
		PrependSelf:       2,
		SetBlackhole:      true,
	}}}
	r := mkRoute()
	if !rm.Apply(r, 65001) {
		t.Fatal("accept expected")
	}
	if r.LocalPref != 250 || !r.Blackhole {
		t.Fatalf("lp=%d bh=%v", r.LocalPref, r.Blackhole)
	}
	if !r.Communities.Has(bgp.C(1, 2)) || r.Communities.Has(bgp.C(64500, 100)) {
		t.Fatalf("communities=%v", r.Communities)
	}
	seq := r.ASPath.Sequence()
	if len(seq) != 4 || seq[0] != 65001 || seq[1] != 65001 {
		t.Fatalf("path=%v", seq)
	}
}

// The §6.3 misconfiguration: a blackhole term evaluated before customer
// prefix validation lets a hijacked prefix through when tagged with the
// blackhole community. Swapping term order closes the hole — same terms,
// different outcome.
func TestRouteMapEvaluationOrderRTBHMisconfig(t *testing.T) {
	customer := (&PrefixList{}).AddRange(netx.MustPrefix("203.0.113.0/24"), 24, 32)
	bhList := CommunityList{Patterns: []CommunityPattern{{ASN: 65001, Value: 666}}}

	blackholeTerm := Term{Name: "rtbh", MatchCommunity: &bhList, SetBlackhole: true, SetLocalPref: Uint32(200)}
	validateTerm := Term{Name: "validate", MatchPrefix: customer, Continue: true}

	// Misconfigured (NANOG tutorial shape): the blackhole term fires on the
	// community alone, before any prefix validation.
	misconfigured := &RouteMap{DefaultDeny: true, Terms: []Term{blackholeTerm, validateTerm}}
	// Corrected: blackhole processing is constrained to validated customer
	// prefixes.
	correctedBH := blackholeTerm
	correctedBH.MatchPrefix = customer
	corrected := &RouteMap{DefaultDeny: true, Terms: []Term{validateTerm, correctedBH}}

	hijack := NewLocalRoute(netx.MustPrefix("198.51.100.0/24")) // not a customer prefix
	hijack.Communities = bgp.NewCommunitySet(bgp.C(65001, 666))

	if ok := misconfigured.Apply(hijack.Clone(), 65001); !ok {
		t.Fatal("misconfigured map must accept the tagged hijack")
	}
	if ok := corrected.Apply(hijack.Clone(), 65001); ok {
		t.Fatal("corrected map must reject the tagged hijack")
	}

	// A legitimate tagged customer prefix passes both.
	legit := NewLocalRoute(netx.MustPrefix("203.0.113.5/32"))
	legit.Communities = bgp.NewCommunitySet(bgp.C(65001, 666))
	out := legit.Clone()
	if ok := corrected.Apply(out, 65001); !ok || !out.Blackhole {
		t.Fatalf("legit blackhole rejected or not marked: ok=%v bh=%v", ok, out.Blackhole)
	}
}

func TestRouteMapMatchRelAndNeighbor(t *testing.T) {
	rm := &RouteMap{DefaultDeny: true, Terms: []Term{
		{MatchRel: topo.RelCustomer, MatchNeighbor: 64500},
	}}
	r := mkRoute()
	if !rm.Apply(r, 1) {
		t.Fatal("customer route from 64500 should pass")
	}
	r2 := mkRoute()
	r2.FromRel = topo.RelPeer
	if rm.Apply(r2, 1) {
		t.Fatal("peer route should fail")
	}
	r3 := mkRoute()
	r3.NextHopAS = 999
	if rm.Apply(r3, 1) {
		t.Fatal("wrong neighbor should fail")
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
	kinds := []ServiceKind{SvcBlackhole, SvcPrepend, SvcLocalPref, SvcAnnounceTo, SvcNoAnnounceTo, SvcNoExport, SvcLocation, ServiceKind(99)}
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
