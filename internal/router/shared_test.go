package router

import (
	"net/netip"
	"slices"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// mkSharedPair builds two identically configured routers, one fed
// routes and one fed handles.
func mkSharedPair(cfg Config) (classic, shared *Router) {
	mk := func() *Router {
		r := New(cfg, NewRouteArena())
		r.AddNeighbor(100, topo.RelProvider)
		r.AddNeighbor(200, topo.RelCustomer)
		r.AddNeighbor(300, topo.RelPeer)
		return r
	}
	return mk(), mk()
}

// cloneRoute deep-copies rt, so a test can feed one copy to a router and
// keep the other as the expected value.
func cloneRoute(rt *policy.Route) *policy.Route {
	out := *rt
	out.ASPath = rt.ASPath.Clone()
	out.Communities = rt.Communities.Clone()
	return &out
}

// TestCloneRouteIndependence: a clone shares no path, community set or
// scalar with its original.
func TestCloneRouteIndependence(t *testing.T) {
	r := route(pfx, 64500, 64501)
	r.Communities = bgp.NewCommunitySet(bgp.C(64500, 100))
	c := cloneRoute(r)
	c.Communities = c.Communities.Add(bgp.C(1, 1))
	c.ASPath[0].ASNs[0] = 9
	c.LocalPref = 50
	if r.Communities.Has(bgp.C(1, 1)) || r.ASPath[0].ASNs[0] != 64500 || r.LocalPref != policy.DefaultLocalPref {
		t.Fatal("clone aliases original")
	}
}

// equalRoutes compares two routes on what re-advertisement compares
// (RouteArena.sameRecord).
func equalRoutes(a, b *policy.Route) bool {
	return a.Prefix == b.Prefix && a.NextHopAS == b.NextHopAS && a.LocalPref == b.LocalPref &&
		a.Blackhole == b.Blackhole && a.Origin == b.Origin && a.MED == b.MED &&
		slices.Equal(a.ASPath.Sequence(), b.ASPath.Sequence()) && slices.Equal(a.Communities, b.Communities)
}

// adjIn returns the Adj-RIB-In entry r holds for p from session from, or
// nil.
func adjIn(r *Router, p netip.Prefix, from topo.ASN) *policy.Route {
	var got *policy.Route
	r.EachAdjIn(func(q netip.Prefix, f topo.ASN, rt *policy.Route) {
		if q == p && f == from {
			got = rt
		}
	})
	return got
}

// importWant is what the import policy must make of one update: the
// outcome and, for an accepted one, the stored entry's local-pref,
// blackhole flag and the communities the import adds.
type importWant struct {
	res  ImportResult
	lp   uint32
	bh   bool
	tags []bgp.Community
}

// TestReceiveSharedMatchesReceiveUpdate holds the import policy to the
// expected outcome, local-pref, blackhole flag and added communities of
// every (config, session, route) case, through both of its entry points:
// a route (ReceiveUpdate) and a handle to a stored one
// (ReceiveSharedNoDecide, then Decide, the delta engine's receive). The
// two must store the same entries and report the same changes, and
// neither may mutate the input or store a tagged set that aliases it.
func TestReceiveSharedMatchesReceiveUpdate(t *testing.T) {
	cat := policy.NewCatalog(65001)
	cat.Add(policy.Service{Community: bgp.C(65001, 666), Kind: policy.SvcBlackhole})
	cat.Add(policy.Service{Community: bgp.C(65001, 70), Kind: policy.SvcLocalPref, Param: 70, CustomerOnly: true})
	cfgs := map[string]Config{
		"plain": {ASN: 65001},
		"services": {
			ASN: 65001, Catalog: cat,
			BlackholeMinLen: 24, BlackholeAddNoExport: true,
		},
		// Two tagged sessions, each list naming a community some route
		// already carries: that Add is a no-op, and the entry must still
		// own its set rather than alias the shared one.
		"tagging": {
			ASN: 65001,
			IngressTags: map[topo.ASN][]bgp.Community{
				200: {bgp.C(65001, 42), bgp.C(65001, 500)},
				300: {bgp.C(65001, 7), bgp.C(3320, 100), bgp.C(65001, 8)},
			},
		},
		"hygiene": {ASN: 65001, MaxPrefixLen: 24},
	}
	routes := []*policy.Route{
		func() *policy.Route {
			rt := policy.NewLocalRoute(netx.MustPrefix("203.0.113.0/24"))
			rt.ASPath = bgp.Path(100, 3320)
			rt.Communities = bgp.NewCommunitySet(bgp.C(3320, 100))
			return rt
		}(),
		func() *policy.Route {
			rt := policy.NewLocalRoute(netip.PrefixFrom(netx.V4(203, 0, 113, 9), 32))
			rt.ASPath = bgp.Path(200, 64999)
			// Spare capacity: an Add that skipped the copy would write
			// the shared array in place.
			rt.Communities = append(make(bgp.CommunitySet, 0, 8), bgp.C(65001, 500), bgp.C(65001, 666))
			return rt
		}(),
		func() *policy.Route {
			rt := policy.NewLocalRoute(netx.MustPrefix("198.51.100.0/25"))
			rt.ASPath = bgp.Path(300, 65001, 9)
			return rt
		}(),
	}
	sessions := []topo.ASN{100, 200, 300}
	byRel := func(tags ...[]bgp.Community) [3]importWant {
		w := [3]importWant{{lp: LocalPrefProvider}, {lp: LocalPrefCustomer}, {lp: LocalPrefPeer}}
		for i := range tags {
			w[i].tags = tags[i]
		}
		return w
	}
	same := func(w importWant) [3]importWant { return [3]importWant{w, w, w} }
	loop := same(importWant{res: ImportRejectedLoop})
	// wants[cfg][route][session]: sessions 100, 200 and 300 are a
	// provider, a customer and a peer. Route 2's path runs through 65001.
	wants := map[string][3][3]importWant{
		"plain": {byRel(), byRel(), loop},
		"services": {
			byRel(),
			// The /32 carries the RTBH community: blackholed at its
			// precedence and tagged NO_EXPORT from every session.
			same(importWant{lp: LocalPrefBlackhole, bh: true, tags: []bgp.Community{bgp.CommunityNoExport}}),
			loop,
		},
		"tagging": {
			byRel(nil, cfgs["tagging"].IngressTags[200], cfgs["tagging"].IngressTags[300]),
			byRel(nil, cfgs["tagging"].IngressTags[200], cfgs["tagging"].IngressTags[300]),
			loop,
		},
		"hygiene": {byRel(), same(importWant{res: ImportRejectedTooSpecific}), loop},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			classic, shared := mkSharedPair(cfg)
			for si, from := range sessions {
				for ri, rt := range routes {
					w := wants[name][ri][si]
					want := cloneRoute(rt) // guard against input mutation
					resC, chgC := classic.ReceiveUpdate(from, rt)
					id := shared.Table().Intern(rt.Prefix)
					resS, chgS := shared.ReceiveSharedNoDecide(nil, from, id, shared.routes.Add(rt))
					chgS = chgS && shared.Decide(id)
					if resC != w.res || resS != w.res || chgC != chgS {
						t.Fatalf("from=%d %s: route input (%v,%v), handle input (%v,%v), want %v and equal changes", from, rt.Prefix, resC, chgC, resS, chgS, w.res)
					}
					if !equalRoutes(rt, want) || rt.LocalPref != want.LocalPref || rt.FromRel != want.FromRel {
						t.Fatalf("input mutated: %v != %v", rt, want)
					}
					for _, r := range []*Router{classic, shared} {
						got := adjIn(r, rt.Prefix, from)
						if w.res != ImportAccepted {
							if got != nil {
								t.Fatalf("from=%d %s: rejected as %v, yet stored %v", from, rt.Prefix, w.res, show(got))
							}
							continue
						}
						comms := slices.Clone(rt.Communities).AddAll(w.tags...)
						if got == nil || got.LocalPref != w.lp || got.Blackhole != w.bh || !slices.Equal(got.Communities, comms) ||
							got.NextHopAS != from || got.FromRel != classic.NeighborRel(from) {
							t.Fatalf("from=%d %s: stored %v, want lp=%d blackhole=%v communities %v", from, rt.Prefix, show(got), w.lp, w.bh, comms)
						}
					}
				}
			}
			// The resulting RIBs and Adj-RIB-Ins must match field for field.
			for _, rt := range routes {
				bc, okc := classic.BestRoute(rt.Prefix)
				bs, oks := shared.BestRoute(rt.Prefix)
				if okc != oks {
					t.Fatalf("best presence diverges for %s: %v vs %v", rt.Prefix, okc, oks)
				}
				if okc && (!equalRoutes(bc, bs) || bc.FromRel != bs.FromRel) {
					t.Fatalf("best diverges for %s:\nroute input:  %v\nhandle input: %v", rt.Prefix, bc, bs)
				}
			}
			type adj struct {
				p    netip.Prefix
				from topo.ASN
				line string
			}
			collect := func(r *Router) []adj {
				var out []adj
				r.EachAdjIn(func(p netip.Prefix, from topo.ASN, rt *policy.Route) {
					out = append(out, adj{p, from, rt.String()})
				})
				return out
			}
			ac, as := collect(classic), collect(shared)
			if len(ac) != len(as) {
				t.Fatalf("adj-in sizes diverge: %d vs %d", len(ac), len(as))
			}
			for i := range ac {
				if ac[i] != as[i] {
					t.Fatalf("adj-in diverges at %d:\nroute input:  %+v\nhandle input: %+v", i, ac[i], as[i])
				}
			}
			// A tagged session's entries carry every tag, in a community
			// set of their own.
			for _, r := range []*Router{classic, shared} {
				r.EachAdjIn(func(p netip.Prefix, from topo.ASN, rt *policy.Route) {
					tags := cfg.IngressTags[from]
					for _, c := range tags {
						if !rt.Communities.Has(c) {
							t.Errorf("%s from %d: tag %s missing: %v", p, from, c, rt.Communities)
						}
					}
					for _, in := range routes {
						if len(tags) > 0 && in.Prefix == p && len(in.Communities) > 0 && &rt.Communities[0] == &in.Communities[0] {
							t.Errorf("%s from %d: tagged entry aliases the input community set", p, from)
						}
					}
				})
			}
		})
	}
}

// TestNoDecideBatchingMatchesPerDelivery pins the batched-decide
// contract: applying a group of deliveries with ReceiveSharedNoDecide /
// WithdrawNoDecide and deciding once converges to the same Loc-RIB as
// deciding after every delivery.
func TestNoDecideBatchingMatchesPerDelivery(t *testing.T) {
	pfx := netx.MustPrefix("203.0.113.0/24")
	mk := func() *Router {
		r := New(Config{ASN: 65001}, NewRouteArena())
		r.AddNeighbor(100, topo.RelProvider)
		r.AddNeighbor(200, topo.RelCustomer)
		return r
	}
	rtFrom := func(first uint32, med uint32) *policy.Route {
		rt := policy.NewLocalRoute(pfx)
		rt.ASPath = bgp.Path(first, 3320)
		rt.MED = med
		return rt
	}
	perDelivery, batched := mk(), mk()

	perDelivery.ReceiveUpdate(100, rtFrom(100, 5))
	perDelivery.ReceiveUpdate(200, rtFrom(200, 9))
	perDelivery.ReceiveWithdraw(100, pfx)

	id := batched.Table().Intern(pfx)
	batched.ReceiveSharedNoDecide(nil, 100, id, batched.routes.Add(rtFrom(100, 5)))
	batched.ReceiveSharedNoDecide(nil, 200, id, batched.routes.Add(rtFrom(200, 9)))
	batched.WithdrawNoDecide(100, id)
	if !batched.Decide(id) {
		t.Fatal("batched decide reported no change for a new prefix")
	}

	bp, okp := perDelivery.BestRoute(pfx)
	bb, okb := batched.BestRoute(pfx)
	if !okp || !okb {
		t.Fatalf("missing best route: per-delivery=%v batched=%v", okp, okb)
	}
	if !equalRoutes(bp, bb) || bp.FromRel != bb.FromRel {
		t.Fatalf("batched decide diverges:\nper-delivery: %v\nbatched:      %v", bp, bb)
	}
}
