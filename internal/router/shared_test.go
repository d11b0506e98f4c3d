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

// mkSharedPair builds two identically configured routers for the
// shared-vs-classic receive comparison.
func mkSharedPair(cfg Config) (classic, shared *Router) {
	mk := func() *Router {
		r := New(cfg)
		r.AddNeighbor(100, topo.RelProvider)
		r.AddNeighbor(200, topo.RelCustomer)
		r.AddNeighbor(300, topo.RelPeer)
		return r
	}
	return mk(), mk()
}

// ReceiveShared is the delta engine's receive — ReceiveSharedNoDecide,
// then Decide — as one step, so it can stand beside ReceiveUpdate. in is
// stored in the router's arena first, the way a sender's export is.
func (r *Router) ReceiveShared(from topo.ASN, in *policy.Route) (ImportResult, bool) {
	id := r.tbl.Intern(in.Prefix)
	res := r.ReceiveSharedNoDecide(nil, from, id, r.routes.Add(in))
	if res != ImportAccepted {
		return res, false
	}
	return res, r.Decide(id)
}

// equalRoutes compares two routes on what re-advertisement compares
// (RouteArena.sameRecord).
func equalRoutes(a, b *policy.Route) bool {
	return a.Prefix == b.Prefix && a.NextHopAS == b.NextHopAS && a.LocalPref == b.LocalPref &&
		a.Blackhole == b.Blackhole && a.Origin == b.Origin && a.MED == b.MED &&
		slices.Equal(a.ASPath.Sequence(), b.ASPath.Sequence()) && slices.Equal(a.Communities, b.Communities)
}

// TestReceiveSharedMatchesReceiveUpdate pins the contract the delta
// engine rests on: ReceiveShared (shallow copy + copy-on-write) must
// produce the same import results and the same Loc-RIB as ReceiveUpdate
// (deep clone) — and must never mutate the shared input.
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
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			classic, shared := mkSharedPair(cfg)
			for _, from := range []topo.ASN{100, 200, 300} {
				for _, rt := range routes {
					want := rt.Clone() // guard against input mutation
					resC, chgC := classic.ReceiveUpdate(from, rt)
					resS, chgS := shared.ReceiveShared(from, rt)
					if resC != resS || chgC != chgS {
						t.Fatalf("from=%d %s: classic=(%v,%v) shared=(%v,%v)", from, rt.Prefix, resC, chgC, resS, chgS)
					}
					if !equalRoutes(rt, want) || rt.LocalPref != want.LocalPref || rt.FromRel != want.FromRel {
						t.Fatalf("shared input mutated: %v != %v", rt, want)
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
					t.Fatalf("best diverges for %s:\nclassic: %v\nshared:  %v", rt.Prefix, bc, bs)
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
					t.Fatalf("adj-in diverges at %d:\nclassic: %+v\nshared:  %+v", i, ac[i], as[i])
				}
			}
			// A tagged session's entries carry every tag, in a community
			// set of their own.
			shared.EachAdjIn(func(p netip.Prefix, from topo.ASN, rt *policy.Route) {
				tags := cfg.IngressTags[from]
				for _, c := range tags {
					if !rt.Communities.Has(c) {
						t.Errorf("%s from %d: tag %s missing: %v", p, from, c, rt.Communities)
					}
				}
				for _, in := range routes {
					if len(tags) > 0 && in.Prefix == p && len(in.Communities) > 0 && &rt.Communities[0] == &in.Communities[0] {
						t.Errorf("%s from %d: tagged entry aliases the shared community set", p, from)
					}
				}
			})
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
		r := New(Config{ASN: 65001})
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
