package router

import (
	"net/netip"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

var pfx = netx.MustPrefix("203.0.113.0/24")

func route(p netip.Prefix, path ...uint32) *policy.Route {
	r := policy.NewLocalRoute(p)
	r.ASPath = bgp.Path(path...)
	return r
}

func newRouter(asn topo.ASN) *Router {
	return New(Config{ASN: asn, Vendor: VendorJuniper}, NewRouteArena())
}

func TestOriginateAndBest(t *testing.T) {
	r := newRouter(65001)
	if !r.Originate(pfx, bgp.C(65001, 100)) {
		t.Fatal("originate should change RIB")
	}
	best, ok := r.BestRoute(pfx)
	if !ok || best.NextHopAS != 0 || !best.Communities.Has(bgp.C(65001, 100)) {
		t.Fatalf("best=%v ok=%v", best, ok)
	}
	if !r.WithdrawLocal(pfx) {
		t.Fatal("withdraw should change RIB")
	}
	if _, ok := r.BestRoute(pfx); ok {
		t.Fatal("route should be gone")
	}
	if r.WithdrawLocal(pfx) {
		t.Fatal("double withdraw should be no-op")
	}
}

func TestReceiveUpdateBasics(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)

	res, changed := r.ReceiveUpdate(64500, route(pfx, 64500))
	if res != ImportAccepted || !changed {
		t.Fatalf("res=%v changed=%v", res, changed)
	}
	best, _ := r.BestRoute(pfx)
	if best.NextHopAS != 64500 || best.FromRel != topo.RelCustomer || best.LocalPref != LocalPrefCustomer {
		t.Fatalf("best=%+v", best)
	}

	// Unknown neighbor.
	if res, _ := r.ReceiveUpdate(9999, route(pfx, 9999)); res != ImportRejectedUnknownNeighbor {
		t.Fatalf("res=%v", res)
	}
	// Loop.
	if res, _ := r.ReceiveUpdate(64500, route(pfx, 64500, 65001, 1)); res != ImportRejectedLoop {
		t.Fatalf("res=%v", res)
	}
}

func TestLocalPrefByRelationshipWinsOverPathLength(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelPeer)
	r.AddNeighbor(64502, topo.RelProvider)

	// Provider offers the shortest path, customer the longest; the
	// customer must still win on local-pref.
	r.ReceiveUpdate(64502, route(pfx, 64502, 1))
	r.ReceiveUpdate(64501, route(pfx, 64501, 9, 1))
	r.ReceiveUpdate(64500, route(pfx, 64500, 7, 8, 9, 1))

	best, _ := r.BestRoute(pfx)
	if best.NextHopAS != 64500 {
		t.Fatalf("best via AS%d, want customer 64500", best.NextHopAS)
	}
}

func TestDecisionTieBreaks(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelPeer)
	r.AddNeighbor(64501, topo.RelPeer)

	// Same LP, shorter path wins.
	r.ReceiveUpdate(64500, route(pfx, 64500, 2, 1))
	r.ReceiveUpdate(64501, route(pfx, 64501, 1))
	best, _ := r.BestRoute(pfx)
	if best.NextHopAS != 64501 {
		t.Fatalf("shorter path should win, got AS%d", best.NextHopAS)
	}

	// Same LP and length: lower neighbor ASN wins.
	p2 := netx.MustPrefix("198.51.100.0/24")
	r.ReceiveUpdate(64501, route(p2, 64501, 1))
	r.ReceiveUpdate(64500, route(p2, 64500, 1))
	best, _ = r.BestRoute(p2)
	if best.NextHopAS != 64500 {
		t.Fatalf("lower ASN should win, got AS%d", best.NextHopAS)
	}

	// Origin tie-break: lower origin value preferred.
	p3 := netx.MustPrefix("192.0.2.0/24")
	egp := route(p3, 64500, 1)
	egp.Origin = bgp.OriginIncomplete
	r.ReceiveUpdate(64500, egp)
	igp := route(p3, 64501, 1)
	igp.Origin = bgp.OriginIGP
	r.ReceiveUpdate(64501, igp)
	best, _ = r.BestRoute(p3)
	if best.NextHopAS != 64501 {
		t.Fatalf("IGP origin should win, got AS%d", best.NextHopAS)
	}
}

func TestLocallyOriginatedBeatsLearned(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.Originate(pfx)
	got, _ := r.ReceiveUpdate(64500, route(pfx, 64500, 1))
	if got != ImportAccepted {
		t.Fatal("accept expected")
	}
	best, _ := r.BestRoute(pfx)
	// Weight semantics: the local origination wins even against the
	// higher customer LP — an AS always prefers its own prefix.
	if best.NextHopAS != 0 {
		t.Fatalf("local origination should win, got AS%d", best.NextHopAS)
	}
}

func TestReceiveWithdraw(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelCustomer)
	r.ReceiveUpdate(64500, route(pfx, 64500, 1))
	r.ReceiveUpdate(64501, route(pfx, 64501, 2, 1))

	if !r.ReceiveWithdraw(64500, pfx) {
		t.Fatal("withdraw of best should change RIB")
	}
	best, _ := r.BestRoute(pfx)
	if best.NextHopAS != 64501 {
		t.Fatalf("fallback failed: AS%d", best.NextHopAS)
	}
	if r.ReceiveWithdraw(64500, pfx) {
		t.Fatal("repeat withdraw is a no-op")
	}
	if r.ReceiveWithdraw(64500, netx.MustPrefix("10.0.0.0/8")) {
		t.Fatal("unknown prefix withdraw is a no-op")
	}
}

func TestRTBHServiceAcceptsAndNullRoutes(t *testing.T) {
	bh := bgp.C(65001, 666)
	r := New(Config{
		ASN: 65001, Vendor: VendorJuniper,
		Catalog:         policy.NewCatalog(65001).Add(policy.Service{Community: bh, Kind: policy.SvcBlackhole}),
		BlackholeMinLen: 24,
		MaxPrefixLen:    24,
	}, NewRouteArena())
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelPeer)

	// Attackee path: short, no community.
	r.ReceiveUpdate(64501, route(pfx, 64501, 1))
	// Attacker path: longer but blackhole-tagged — must win on LP 200.
	tagged := route(pfx, 64500, 5, 6, 1)
	tagged.Communities = bgp.NewCommunitySet(bh)
	res, changed := r.ReceiveUpdate(64500, tagged)
	if res != ImportAccepted || !changed {
		t.Fatalf("res=%v changed=%v", res, changed)
	}
	best, _ := r.BestRoute(pfx)
	if !best.Blackhole || best.NextHopAS != 64500 || best.LocalPref != LocalPrefBlackhole {
		t.Fatalf("best=%+v", best)
	}

	// A /32 blackhole is accepted even with MaxPrefixLen 24.
	host := route(netx.MustPrefix("203.0.113.7/32"), 64500, 1)
	host.Communities = bgp.NewCommunitySet(bgp.CommunityBlackhole) // RFC 7999 honoured too
	if res, _ := r.ReceiveUpdate(64500, host); res != ImportAccepted {
		t.Fatalf("res=%v", res)
	}
	hb, _ := r.BestRoute(netx.MustPrefix("203.0.113.7/32"))
	if !hb.Blackhole {
		t.Fatal("RFC 7999 blackhole not honoured")
	}

	// A /32 without blackhole tag is too specific.
	if res, _ := r.ReceiveUpdate(64500, route(netx.MustPrefix("203.0.113.9/32"), 64500, 1)); res != ImportRejectedTooSpecific {
		t.Fatalf("res=%v", res)
	}

	// Blackhole tag on a /16: too coarse for RTBH (min /24), treated as
	// a normal route.
	coarse := route(netx.MustPrefix("203.0.0.0/16"), 64500, 1)
	coarse.Communities = bgp.NewCommunitySet(bh)
	r.ReceiveUpdate(64500, coarse)
	cb, _ := r.BestRoute(netx.MustPrefix("203.0.0.0/16"))
	if cb.Blackhole {
		t.Fatal("/16 must not be blackholed")
	}
}

// TestRejectedUpdateWithdrawsCandidate: an update the import rejects
// still replaces what its session sent before (RFC 4271 §9's implicit
// withdraw), for every policy rejection — a path through us, a /32
// re-sent without the blackhole community that made it acceptable, and
// an announcement outside the customer's registered prefixes. The old
// candidate must leave the Adj-RIB-In and the best route must fall back,
// reported as a change.
func TestRejectedUpdateWithdrawsCandidate(t *testing.T) {
	bh := bgp.C(65001, 666)
	host := netx.MustPrefix("192.0.2.7/32")
	mk := func() *Router {
		r := New(Config{
			ASN: 65001, Vendor: VendorJuniper,
			Catalog:          policy.NewCatalog(65001).Add(policy.Service{Community: bh, Kind: policy.SvcBlackhole}),
			BlackholeMinLen:  24,
			MaxPrefixLen:     24,
			CustomerPrefixes: map[topo.ASN]*policy.PrefixList{64500: (&policy.PrefixList{}).AddRange(host, 24, 32).AddRange(pfx, 24, 24)},
			ValidateOrigin:   true,
		}, NewRouteArena())
		r.AddNeighbor(64500, topo.RelCustomer)
		r.AddNeighbor(64501, topo.RelPeer)
		return r
	}
	tagged := func(rt *policy.Route, cs ...bgp.Community) *policy.Route {
		rt.Communities = bgp.NewCommunitySet(cs...)
		return rt
	}
	for _, c := range []struct {
		name           string
		p              netip.Prefix
		accept, reject *policy.Route
		want           ImportResult
		fallback       topo.ASN // the best after the rejection, 0 for none
	}{
		{"loop", pfx, route(pfx, 64500, 1), route(pfx, 64500, 65001, 1), ImportRejectedLoop, 64501},
		{"too-specific", host, tagged(route(host, 64500, 1), bh), route(host, 64500, 1), ImportRejectedTooSpecific, 0},
		{"origin-invalid", pfx, route(pfx, 64500, 1), tagged(route(pfx, 64500, 1), bgp.C(64500, 1)), ImportRejectedOriginInvalid, 64501},
	} {
		r := mk()
		if c.fallback != 0 {
			r.ReceiveUpdate(c.fallback, route(c.p, uint32(c.fallback), 7, 1))
		}
		if res, _ := r.ReceiveUpdate(64500, c.accept); res != ImportAccepted {
			t.Fatalf("%s: first update %v, want accepted", c.name, res)
		}
		if c.name == "origin-invalid" {
			// The customer's registered prefixes no longer cover it.
			r.Config().CustomerPrefixes[64500] = (&policy.PrefixList{}).AddRange(host, 24, 32)
		}
		res, changed := r.ReceiveUpdate(64500, c.reject)
		if res != c.want || !changed {
			t.Fatalf("%s: rejection %v changed=%v, want %v and a change", c.name, res, changed, c.want)
		}
		r.EachAdjIn(func(p netip.Prefix, from topo.ASN, rt *policy.Route) {
			if p == c.p && from == 64500 {
				t.Errorf("%s: the rejected session's old candidate is still in the Adj-RIB-In: %v", c.name, rt)
			}
		})
		best, ok := r.BestRoute(c.p)
		if c.fallback == 0 && ok || c.fallback != 0 && (!ok || best.NextHopAS != c.fallback) {
			t.Errorf("%s: best after the rejection %v (ok=%v), want the route from AS%d", c.name, best, ok, c.fallback)
		}
		if res, changed := r.ReceiveUpdate(64500, c.reject); res != c.want || changed {
			t.Errorf("%s: the same rejection again: %v changed=%v, want no change", c.name, res, changed)
		}
	}
}

// TestImportPrefixLengthLimit holds the hygiene limit on both import
// entry points, a route (ReceiveUpdate) and a stored route's handle
// (ReceiveSharedNoDecide, the delta engine's): MaxPrefixLen bounds IPv4
// announcements, and IPv6 ones are bounded at /48 whatever it says.
func TestImportPrefixLengthLimit(t *testing.T) {
	for _, c := range []struct {
		p    netip.Prefix
		want ImportResult
	}{
		{netip.MustParsePrefix("203.0.113.0/24"), ImportAccepted},
		{netip.MustParsePrefix("203.0.113.0/25"), ImportRejectedTooSpecific},
		{netip.MustParsePrefix("2001:db8:1::/48"), ImportAccepted},
		{netip.MustParsePrefix("2001:db8:1::/49"), ImportRejectedTooSpecific},
	} {
		for _, handle := range []bool{false, true} {
			r := New(Config{ASN: 65001, MaxPrefixLen: 24}, NewRouteArena())
			r.AddNeighbor(64500, topo.RelCustomer)
			var res ImportResult
			if handle {
				id := r.Table().Intern(c.p)
				res, _ = r.ReceiveSharedNoDecide(nil, 64500, id, r.routes.Add(route(c.p, 64500, 1)))
				r.Decide(id)
			} else {
				res, _ = r.ReceiveUpdate(64500, route(c.p, 64500, 1))
			}
			_, best := r.BestRoute(c.p)
			if res != c.want || best != (c.want == ImportAccepted) {
				t.Errorf("%s (handle input %v): %v, best route %v; want %v", c.p, handle, res, best, c.want)
			}
		}
	}
}

// TestExportToNeedsMutableRouter pins ExportTo's precondition: it stores
// the route it builds in the router's arena, so on a sealed router,
// whose arena a fork freezes, it panics before it writes anything.
func TestExportToNeedsMutableRouter(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelCustomer)
	r.ReceiveUpdate(64500, route(pfx, 64500, 1))
	before := r.routes.Routes()
	if out, d := r.ExportTo(64501, pfx); d != ExportSent || out.NextHopAS != 65001 || r.routes.Routes() != before+1 {
		t.Fatalf("ExportTo on a mutable router: %v %v, %d routes stored, want the export and one", out, d, r.routes.Routes()-before)
	}
	r.Seal()
	r.routes.Clone() // a fork freezes the arena
	before = r.routes.Routes()
	paths, sets := r.routes.Interned()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ExportTo on a sealed router did not panic")
			}
		}()
		r.ExportTo(64501, pfx)
	}()
	if p, s := r.routes.Interned(); r.routes.Routes() != before || p != paths || s != sets {
		t.Error("ExportTo on a sealed router wrote to its arena")
	}
}

func TestOriginValidationOrdering(t *testing.T) {
	bh := bgp.C(65001, 666)
	mk := func(misconfig bool) *Router {
		cust := (&policy.PrefixList{}).AddRange(netx.MustPrefix("192.0.2.0/24"), 24, 32)
		r := New(Config{
			ASN: 65001, Vendor: VendorJuniper,
			Catalog:                 policy.NewCatalog(65001).Add(policy.Service{Community: bh, Kind: policy.SvcBlackhole}),
			CustomerPrefixes:        map[topo.ASN]*policy.PrefixList{64500: cust},
			ValidateOrigin:          true,
			BlackholeMinLen:         24,
			BlackholeBeforeValidate: misconfig,
		}, NewRouteArena())
		r.AddNeighbor(64500, topo.RelCustomer)
		return r
	}

	hijack := route(pfx, 64500, 1) // pfx is NOT in 64500's allowed list
	hijack.Communities = bgp.NewCommunitySet(bh)

	// Correct order: validation rejects the hijack despite the tag.
	if res, _ := mk(false).ReceiveUpdate(64500, cloneRoute(hijack)); res != ImportRejectedOriginInvalid {
		t.Fatalf("correct order: res=%v", res)
	}
	// Misconfigured order: blackhole precedence lets the hijack in.
	r := mk(true)
	if res, _ := r.ReceiveUpdate(64500, cloneRoute(hijack)); res != ImportAccepted {
		t.Fatal("misconfig must accept tagged hijack")
	}
	best, _ := r.BestRoute(pfx)
	if !best.Blackhole {
		t.Fatal("hijack should be null-routed")
	}
	// Untagged hijack rejected either way.
	plain := route(pfx, 64500, 1)
	if res, _ := mk(true).ReceiveUpdate(64500, plain); res != ImportRejectedOriginInvalid {
		t.Fatalf("untagged hijack: res=%v", res)
	}
}

func TestLocalPrefServiceCustomerGating(t *testing.T) {
	lp := bgp.C(65001, 80)
	cat := policy.NewCatalog(65001).Add(policy.Service{
		Community: lp, Kind: policy.SvcLocalPref, Param: 80, CustomerOnly: true,
	})
	r := New(Config{ASN: 65001, Vendor: VendorJuniper, Catalog: cat}, NewRouteArena())
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelPeer)

	tagged := route(pfx, 64500, 1)
	tagged.Communities = bgp.NewCommunitySet(lp)
	r.ReceiveUpdate(64500, tagged)
	best, _ := r.BestRoute(pfx)
	if best.LocalPref != 80 {
		t.Fatalf("customer-set LP service should fire: lp=%d", best.LocalPref)
	}

	// Same tag from a peer: service must NOT fire (§7.4 gating).
	p2 := netx.MustPrefix("198.51.100.0/24")
	tagged2 := route(p2, 64501, 1)
	tagged2.Communities = bgp.NewCommunitySet(lp)
	r.ReceiveUpdate(64501, tagged2)
	best, _ = r.BestRoute(p2)
	if best.LocalPref != LocalPrefPeer {
		t.Fatalf("peer-set LP service must not fire: lp=%d", best.LocalPref)
	}
}

func TestLocationTagging(t *testing.T) {
	r := New(Config{
		ASN: 65001, Vendor: VendorJuniper,
		IngressTags: map[topo.ASN][]bgp.Community{64500: {bgp.C(65001, 201)}},
	}, NewRouteArena())
	r.AddNeighbor(64500, topo.RelPeer)
	r.AddNeighbor(64501, topo.RelPeer)
	r.ReceiveUpdate(64500, route(pfx, 64500, 1))
	best, _ := r.BestRoute(pfx)
	if !best.Communities.Has(bgp.C(65001, 201)) {
		t.Fatalf("location tag missing: %v", best.Communities)
	}
	// Tags belong to the session: an untagged session adds nothing.
	p2 := netx.MustPrefix("198.51.100.0/24")
	r.ReceiveUpdate(64501, route(p2, 64501, 1))
	if best, _ := r.BestRoute(p2); len(best.Communities) != 0 {
		t.Fatalf("untagged session tagged: %v", best.Communities)
	}
}

func TestExportGaoRexford(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelPeer)
	r.AddNeighbor(64502, topo.RelProvider)
	r.AddNeighbor(64503, topo.RelPeer)

	// Peer-learned route: only customers get it.
	r.ReceiveUpdate(64501, route(pfx, 64501, 1))
	if _, d := r.ExportTo(64500, pfx); d != ExportSent {
		t.Fatalf("to customer: %v", d)
	}
	if _, d := r.ExportTo(64503, pfx); d != ExportSuppressedGaoRexford {
		t.Fatalf("to other peer: %v", d)
	}
	if _, d := r.ExportTo(64502, pfx); d != ExportSuppressedGaoRexford {
		t.Fatalf("to provider: %v", d)
	}
	// Never back to the source.
	if _, d := r.ExportTo(64501, pfx); d != ExportSuppressedGaoRexford {
		t.Fatalf("back to source: %v", d)
	}

	// Customer-learned route goes everywhere else.
	p2 := netx.MustPrefix("198.51.100.0/24")
	r.ReceiveUpdate(64500, route(p2, 64500, 1))
	for _, n := range []topo.ASN{64501, 64502, 64503} {
		if _, d := r.ExportTo(n, p2); d != ExportSent {
			t.Fatalf("customer route to %d: %v", n, d)
		}
	}
	// Unknown prefix / neighbor.
	if _, d := r.ExportTo(64500, netx.MustPrefix("10.0.0.0/8")); d != ExportNothing {
		t.Fatalf("unknown prefix: %v", d)
	}
	if _, d := r.ExportTo(999, p2); d != ExportNothing {
		t.Fatalf("unknown neighbor: %v", d)
	}
}

func TestExportAppendsOwnASNAndResetsLP(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelCustomer)
	r.ReceiveUpdate(64500, route(pfx, 64500, 1))
	out, d := r.ExportTo(64501, pfx)
	if d != ExportSent {
		t.Fatal(d)
	}
	seq := out.ASPath.Sequence()
	if len(seq) != 3 || seq[0] != 65001 {
		t.Fatalf("path=%v", seq)
	}
	if out.LocalPref != policy.DefaultLocalPref || out.Blackhole {
		t.Fatalf("lp=%d bh=%v", out.LocalPref, out.Blackhole)
	}
}

func TestWellKnownCommunityExportControl(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelCustomer)
	r.AddNeighbor(64502, topo.RelPeer)

	ne := route(pfx, 64500, 1)
	ne.Communities = bgp.NewCommunitySet(bgp.CommunityNoExport)
	r.ReceiveUpdate(64500, ne)
	if _, d := r.ExportTo(64501, pfx); d != ExportSuppressedNoExport {
		t.Fatalf("NO_EXPORT: %v", d)
	}

	p2 := netx.MustPrefix("198.51.100.0/24")
	na := route(p2, 64500, 1)
	na.Communities = bgp.NewCommunitySet(bgp.CommunityNoAdvertise)
	r.ReceiveUpdate(64500, na)
	if _, d := r.ExportTo(64501, p2); d != ExportSuppressedNoAdvertise {
		t.Fatalf("NO_ADVERTISE: %v", d)
	}

	p3 := netx.MustPrefix("192.0.2.0/24")
	np := route(p3, 64500, 1)
	np.Communities = bgp.NewCommunitySet(bgp.CommunityNoPeer)
	r.ReceiveUpdate(64500, np)
	if _, d := r.ExportTo(64502, p3); d != ExportSuppressedNoExport {
		t.Fatalf("NO_PEER to peer: %v", d)
	}
	if _, d := r.ExportTo(64501, p3); d != ExportSent {
		t.Fatalf("NO_PEER to customer: %v", d)
	}
}

func TestPrependService(t *testing.T) {
	pp := bgp.C(65001, 103)
	cat := policy.NewCatalog(65001).Add(policy.Service{Community: pp, Kind: policy.SvcPrepend, Param: 3})
	r := New(Config{ASN: 65001, Vendor: VendorJuniper, Catalog: cat}, NewRouteArena())
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelPeer)

	tagged := route(pfx, 64500, 1)
	tagged.Communities = bgp.NewCommunitySet(pp)
	r.ReceiveUpdate(64500, tagged)
	out, d := r.ExportTo(64501, pfx)
	if d != ExportSent {
		t.Fatal(d)
	}
	seq := out.ASPath.Sequence()
	// 1 regular + 3 service prepends = 4 copies of 65001.
	count := 0
	for _, a := range seq {
		if a == 65001 {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("path=%v want 4 copies of 65001", seq)
	}
}

func TestSelectiveAnnouncementServices(t *testing.T) {
	annTo := bgp.C(65001, 1)
	noAnnTo := bgp.C(65001, 2)
	cat := policy.NewCatalog(65001).
		Add(policy.Service{Community: noAnnTo, Kind: policy.SvcNoAnnounceTo, Param: 64501}).
		Add(policy.Service{Community: annTo, Kind: policy.SvcAnnounceTo, Param: 64501})
	r := New(Config{ASN: 65001, Vendor: VendorJuniper, Catalog: cat}, NewRouteArena())
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelCustomer)
	r.AddNeighbor(64502, topo.RelCustomer)

	// announce-to only: 64501 gets it, 64502 does not.
	a := route(pfx, 64500, 1)
	a.Communities = bgp.NewCommunitySet(annTo)
	r.ReceiveUpdate(64500, a)
	if _, d := r.ExportTo(64501, pfx); d != ExportSent {
		t.Fatalf("announce-to target: %v", d)
	}
	if _, d := r.ExportTo(64502, pfx); d != ExportSuppressedService {
		t.Fatalf("announce-to non-target: %v", d)
	}

	// Conflict: both tags. Catalog lists no-announce first, so it wins —
	// the §5.3 route-server evaluation-order exploit at AS level.
	p2 := netx.MustPrefix("198.51.100.0/24")
	b := route(p2, 64500, 1)
	b.Communities = bgp.NewCommunitySet(annTo, noAnnTo)
	r.ReceiveUpdate(64500, b)
	if _, d := r.ExportTo(64501, p2); d != ExportSuppressedService {
		t.Fatalf("conflict should suppress: %v", d)
	}
}

func TestNoExportService(t *testing.T) {
	nx := bgp.C(65001, 9)
	cat := policy.NewCatalog(65001).Add(policy.Service{Community: nx, Kind: policy.SvcNoExport})
	r := New(Config{ASN: 65001, Vendor: VendorJuniper, Catalog: cat}, NewRouteArena())
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelCustomer)
	a := route(pfx, 64500, 1)
	a.Communities = bgp.NewCommunitySet(nx)
	r.ReceiveUpdate(64500, a)
	if _, d := r.ExportTo(64501, pfx); d != ExportSuppressedService {
		t.Fatalf("no-export service: %v", d)
	}
}

func TestVendorCommunityDefaults(t *testing.T) {
	mk := func(v Vendor, send bool) *Router {
		cfg := Config{ASN: 65001, Vendor: v}
		if send {
			cfg.SendCommunity = map[topo.ASN]bool{64501: true}
		}
		r := New(cfg, NewRouteArena())
		r.AddNeighbor(64500, topo.RelCustomer)
		r.AddNeighbor(64501, topo.RelCustomer)
		a := route(pfx, 64500, 1)
		a.Communities = bgp.NewCommunitySet(bgp.C(7, 7))
		r.ReceiveUpdate(64500, a)
		return r
	}
	// Juniper forwards by default.
	out, _ := mk(VendorJuniper, false).ExportTo(64501, pfx)
	if !out.Communities.Has(bgp.C(7, 7)) {
		t.Fatal("juniper must forward by default")
	}
	// Cisco strips without send-community.
	out, _ = mk(VendorCisco, false).ExportTo(64501, pfx)
	if len(out.Communities) != 0 {
		t.Fatalf("cisco default must strip: %v", out.Communities)
	}
	// Cisco with send-community forwards.
	out, _ = mk(VendorCisco, true).ExportTo(64501, pfx)
	if !out.Communities.Has(bgp.C(7, 7)) {
		t.Fatal("cisco with send-community must forward")
	}
}

func TestPropagationModesOnExport(t *testing.T) {
	mk := func(mode policy.PropagationMode) bgp.CommunitySet {
		r := New(Config{ASN: 65001, Vendor: VendorJuniper, Propagation: mode}, NewRouteArena())
		r.AddNeighbor(64500, topo.RelCustomer)
		r.AddNeighbor(64501, topo.RelCustomer)
		a := route(pfx, 64500, 1)
		a.Communities = bgp.NewCommunitySet(bgp.C(65001, 5), bgp.C(7, 7))
		r.ReceiveUpdate(64500, a)
		out, _ := r.ExportTo(64501, pfx)
		return out.Communities
	}
	if cs := mk(policy.PropStripAll); len(cs) != 0 {
		t.Fatalf("strip-all: %v", cs)
	}
	cs := mk(policy.PropActStripOwn)
	if cs.Has(bgp.C(65001, 5)) || !cs.Has(bgp.C(7, 7)) {
		t.Fatalf("act-strip-own: %v", cs)
	}
	cs = mk(policy.PropStripForeign)
	if !cs.Has(bgp.C(65001, 5)) || cs.Has(bgp.C(7, 7)) {
		t.Fatalf("strip-foreign: %v", cs)
	}
}

func TestPerNeighborPropagationOverride(t *testing.T) {
	r := New(Config{
		ASN: 65001, Vendor: VendorJuniper,
		Propagation:            policy.PropForwardAll,
		PropagationPerNeighbor: map[topo.ASN]policy.PropagationMode{64501: policy.PropStripAll},
	}, NewRouteArena())
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelCustomer)
	r.AddNeighbor(64502, topo.RelCustomer)
	a := route(pfx, 64500, 1)
	a.Communities = bgp.NewCommunitySet(bgp.C(7, 7))
	r.ReceiveUpdate(64500, a)

	out, _ := r.ExportTo(64501, pfx)
	if len(out.Communities) != 0 {
		t.Fatal("override should strip")
	}
	out, _ = r.ExportTo(64502, pfx)
	if !out.Communities.Has(bgp.C(7, 7)) {
		t.Fatal("default should forward")
	}
}

// advertise records rt as sent to nb for p (nil: nothing is sent)
// through RecordAdvertisedAll and reports whether the session's
// advertisement changed.
func advertise(r *Router, nb topo.ASN, p netip.Prefix, rt *policy.Route) bool {
	it := ExportItem{NB: nb, Dec: ExportSuppressedGaoRexford}
	if rt != nil {
		it.H, it.Dec = r.routes.Add(rt), ExportSent
	}
	changed := false
	r.RecordAdvertisedAll(r.Table().Intern(p), []ExportItem{it}, func(topo.ASN, Handle) { changed = true })
	return changed
}

func TestRecordAdvertisedChangeDetection(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelCustomer)
	r.ReceiveUpdate(64500, route(pfx, 64500, 1))
	out, _ := r.ExportTo(64501, pfx)

	if !advertise(r, 64501, pfx, out) {
		t.Fatal("first advertisement is a change")
	}
	if advertise(r, 64501, pfx, cloneRoute(out)) {
		t.Fatal("identical advertisement is not a change")
	}
	mod := cloneRoute(out)
	mod.Communities = mod.Communities.Add(bgp.C(1, 1))
	if !advertise(r, 64501, pfx, mod) {
		t.Fatal("community change is a change")
	}
	if got, ok := r.Advertised(64501, pfx); !ok || !got.Communities.Has(bgp.C(1, 1)) {
		t.Fatal("Advertised lookup failed")
	}
	if !advertise(r, 64501, pfx, nil) {
		t.Fatal("withdrawal after advertisement is a change")
	}
	if advertise(r, 64501, pfx, nil) {
		t.Fatal("repeat withdrawal is not a change")
	}
}

func TestLookupFIBLongestMatch(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.AddNeighbor(64501, topo.RelCustomer)
	r.ReceiveUpdate(64500, route(netx.MustPrefix("203.0.113.0/24"), 64500, 1))
	r.ReceiveUpdate(64501, route(netx.MustPrefix("203.0.113.0/25"), 64501, 2))

	rt, ok := r.LookupFIB(netip.MustParseAddr("203.0.113.5"))
	if !ok || rt.NextHopAS != 64501 {
		t.Fatalf("LPM failed: %+v", rt)
	}
	rt, ok = r.LookupFIB(netip.MustParseAddr("203.0.113.200"))
	if !ok || rt.NextHopAS != 64500 {
		t.Fatalf("fallback to /24 failed: %+v", rt)
	}
	if _, ok := r.LookupFIB(netip.MustParseAddr("8.8.8.8")); ok {
		t.Fatal("no default route expected")
	}
}

func TestRIBAndStringViews(t *testing.T) {
	r := newRouter(65001)
	r.AddNeighbor(64500, topo.RelCustomer)
	r.ReceiveUpdate(64500, route(pfx, 64500, 1))
	r.Originate(netx.MustPrefix("192.0.2.0/24"))
	rib := r.RIB()
	if len(rib) != 2 {
		t.Fatalf("RIB len=%d", len(rib))
	}
	if len(r.Prefixes()) != 2 {
		t.Fatal("Prefixes wrong")
	}
	if r.String() == "" || rib[0].String() == "" {
		t.Fatal("string views empty")
	}
	if r.NeighborRel(64500) != topo.RelCustomer || len(r.Neighbors()) != 1 {
		t.Fatal("neighbor accessors wrong")
	}
}

func TestCiscoCommunityAdditionCap(t *testing.T) {
	// A session configured with 40 ingress tags: IOS adds the first 32
	// (§6.1), JunOS all 40.
	var tags []bgp.Community
	for i := 0; i < 40; i++ {
		tags = append(tags, bgp.C(65001, uint16(1000+i)))
	}
	for _, c := range []struct {
		v    Vendor
		want int
	}{{VendorCisco, CiscoMaxAddedCommunities}, {VendorJuniper, 40}} {
		cfg := Config{ASN: 65001, Vendor: c.v, IngressTags: map[topo.ASN][]bgp.Community{64500: tags}}
		r := New(cfg, NewRouteArena())
		r.AddNeighbor(64500, topo.RelCustomer)
		r.ReceiveUpdate(64500, route(pfx, 64500, 1))
		best, _ := r.BestRoute(pfx)
		if len(best.Communities) != c.want {
			t.Fatalf("vendor %d: added=%d want %d", c.v, len(best.Communities), c.want)
		}
		if !best.Communities.Has(tags[0]) || best.Communities.Has(tags[c.want-1]+1) {
			t.Fatalf("vendor %d: cap kept the wrong tags: %v", c.v, best.Communities)
		}
	}
}

// String names the outcome in test diagnostics.
func (ir ImportResult) String() string {
	switch ir {
	case ImportAccepted:
		return "accepted"
	case ImportRejectedLoop:
		return "rejected-loop"
	case ImportRejectedUnknownNeighbor:
		return "rejected-unknown-neighbor"
	case ImportRejectedTooSpecific:
		return "rejected-too-specific"
	case ImportRejectedOriginInvalid:
		return "rejected-origin-invalid"
	default:
		return "unknown"
	}
}

func TestImportResultStrings(t *testing.T) {
	for _, ir := range []ImportResult{ImportAccepted, ImportRejectedLoop, ImportRejectedUnknownNeighbor, ImportRejectedTooSpecific, ImportRejectedOriginInvalid, ImportResult(99)} {
		if ir.String() == "" {
			t.Fatal("empty result string")
		}
	}
	for _, d := range []ExportDecision{ExportSent, ExportSuppressedGaoRexford, ExportSuppressedNoExport, ExportSuppressedNoAdvertise, ExportSuppressedService, ExportNothing} {
		if d.String() == "" {
			t.Fatal("empty decision string")
		}
	}
}
