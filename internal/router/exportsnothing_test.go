package router_test

import (
	"slices"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// exportSends runs the export of prefix id at r toward nbs, the way the
// delta engine does (ExportAll with the session hints, then
// RecordAdvertisedAll), and returns the sessions ExportAll would send to
// and those RecordAdvertisedAll emitted to, withdrawals included. r must
// be mutable.
func exportSends(r *router.Router, id uint32, nbs []topo.ASN) (sent, emitted []topo.ASN) {
	items := r.ExportAll(nil, id, nbs, r.Hints(nbs), nil)
	for _, it := range items {
		if it.Dec == router.ExportSent {
			sent = append(sent, it.NB)
		}
	}
	r.RecordAdvertisedAll(id, items, func(nb topo.ASN, _ router.Handle) { emitted = append(emitted, nb) })
	return sent, emitted
}

// modelled returns r's sessions to routers n models, ascending — the
// sessions the delta engine offers exports to — and whether any of them
// is to a customer.
func modelled(n *simnet.Network, r *router.Router) ([]topo.ASN, bool) {
	var nbs []topo.ASN
	customer := false
	for _, nb := range r.Neighbors() {
		if n.Router(nb) != nil {
			nbs = append(nbs, nb)
			customer = customer || r.NeighborRel(nb) == topo.RelCustomer
		}
	}
	return nbs, customer
}

// checkExportsNothing asserts, for every (router, prefix) of n where
// ExportsNothing holds, that the export sends and emits nothing. It
// reports how many pairs the predicate let the engine skip, out of all.
func checkExportsNothing(t *testing.T, n *simnet.Network, when string) (skipped, pairs int) {
	t.Helper()
	ids := uint32(len(n.Routes().Table().Prefixes()))
	for _, asn := range n.ASes() {
		r := n.MutableRouter(asn)
		nbs, customer := modelled(n, r)
		for id := range ids {
			pairs++
			if !r.ExportsNothing(id, customer) {
				continue
			}
			skipped++
			if sent, emitted := exportSends(r, id, nbs); len(sent) > 0 || len(emitted) > 0 {
				t.Fatalf("%s: AS%d %s: ExportsNothing, but ExportAll sends to %v and RecordAdvertisedAll emits to %v",
					when, asn, n.Routes().Table().At(id), sent, emitted)
			}
		}
	}
	return skipped, pairs
}

// TestExportsNothingMatchesExportAll holds the delta engine's scheduling
// predicate to the export it stands in for: on every (router, prefix) of
// converged tiny and small worlds, and again after their churn month,
// wherever Router.ExportsNothing says the export can deliver nothing,
// ExportAll sends to no session and RecordAdvertisedAll emits nothing.
// The worlds are frozen and checked on forks, so the check writes into
// no snapshot. The predicate must also skip most pairs: a predicate that
// never holds would pass vacuously.
func TestExportsNothingMatchesExportAll(t *testing.T) {
	for _, scale := range []string{"tiny", "small"} {
		t.Run(scale, func(t *testing.T) {
			p, err := gen.Preset(scale)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := gen.BuildSnapshot(p)
			if err != nil {
				t.Fatal(err)
			}
			w, err := snap.Fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			if skipped, pairs := checkExportsNothing(t, w.Net, "converged"); 2*skipped < pairs {
				t.Errorf("converged: ExportsNothing held on %d of %d (router, prefix) pairs, want most", skipped, pairs)
			}
			if _, err := w.RunChurn(); err != nil {
				t.Fatal(err)
			}
			checkExportsNothing(t, w.Net, "churned")
		})
	}
}

// TestExportsNothingFixedCases: a prefix with no slot exports nothing,
// and the predicate must not skip three exports: a route server
// redistributes a peer's route, a router whose only customer is a route
// collector still exports to it, and a router whose best moved from its
// own origination to a peer's route must withdraw what it sent.
func TestExportsNothingFixedCases(t *testing.T) {
	p := netx.MustPrefix("203.0.113.0/24")
	learned := func(path ...uint32) *policy.Route {
		rt := policy.NewLocalRoute(p)
		rt.ASPath = bgp.Path(path...)
		return rt
	}
	type session struct {
		nb  topo.ASN
		rel topo.Rel
	}
	mk := func(cfg router.Config, sessions ...session) (*router.Router, []topo.ASN, bool) {
		cfg.ASN = 65001
		r := router.New(cfg, router.NewRouteArena())
		customer := false
		var nbs []topo.ASN
		for _, s := range sessions {
			r.AddNeighbor(s.nb, s.rel)
			nbs = append(nbs, s.nb)
			customer = customer || s.rel == topo.RelCustomer
		}
		slices.Sort(nbs)
		return r, nbs, customer
	}
	id := func(r *router.Router) uint32 {
		id, ok := r.Table().Lookup(p)
		if !ok {
			t.Fatalf("%s never interned", p)
		}
		return id
	}
	mustExport := func(name string, r *router.Router, nbs []topo.ASN, customer bool, wantEmitted []topo.ASN) {
		t.Helper()
		if r.ExportsNothing(id(r), customer) {
			t.Errorf("%s: ExportsNothing holds", name)
		}
		if _, emitted := exportSends(r, id(r), nbs); !slices.Equal(emitted, wantEmitted) {
			t.Errorf("%s: RecordAdvertisedAll emitted to %v, want %v", name, emitted, wantEmitted)
		}
	}

	// A prefix the router never wrote exports nothing.
	if r := router.New(router.Config{ASN: 65001}, router.NewRouteArena()); !r.ExportsNothing(r.Table().Intern(p), true) {
		t.Error("a prefix with no slot should export nothing")
	}

	// A route server (ReflectAll) redistributes a peer's route to its
	// other peers, though it has no customer.
	rs, nbs, customer := mk(router.Config{ReflectAll: true, Transparent: true},
		session{64500, topo.RelPeer}, session{64501, topo.RelPeer})
	rs.ReceiveUpdate(64500, learned(64500))
	mustExport("route server", rs, nbs, customer, []topo.ASN{64501})

	// A router whose only customer is a collector: the provider's route
	// still goes to the collector.
	r, nbs, customer := mk(router.Config{},
		session{64500, topo.RelProvider}, session{64510, topo.RelPeer}, session{65500, topo.RelCustomer})
	r.ReceiveUpdate(64500, learned(64500))
	if !r.ExportsNothing(id(r), false) {
		t.Error("collector customer: without the customer session, a provider's route should export nothing")
	}
	mustExport("collector customer", r, nbs, customer, []topo.ASN{65500})

	// A router with no customer originated the prefix and sent it to
	// every session; then it withdraws its origination and a peer's route
	// becomes its best. That route goes nowhere, but the Adj-RIB-Out
	// still holds what must be withdrawn from every session.
	r, nbs, customer = mk(router.Config{},
		session{64500, topo.RelProvider}, session{64510, topo.RelPeer}, session{64511, topo.RelPeer})
	r.Originate(p)
	mustExport("origination", r, nbs, customer, nbs)
	r.ReceiveUpdate(64510, learned(64510, 7))
	r.WithdrawLocal(p)
	mustExport("withdraw what was sent", r, nbs, customer, nbs)
	if !r.ExportsNothing(id(r), customer) {
		t.Error("after the withdrawals, a peer's route with no customer to go to should export nothing")
	}
}
