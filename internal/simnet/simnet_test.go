package simnet

import (
	"net/netip"
	"runtime"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/topo"
)

var pfx = netx.MustPrefix("203.0.113.0/24")

// paperFig2 builds the Figure 2 topology:
// AS1 -- AS2 -- AS4 -- {AS3, AS5} -- AS6, with AS1 customer of AS2,
// AS2 customer of AS4, AS3/AS5 customers of AS4... Actually in Figure 2
// AS4 announces to AS3 and AS5, which announce to AS6. Model AS4 as
// customer of AS3 and AS5, and AS3/AS5 as customers of AS6's providers.
// For test purposes: AS1<AS2<AS4<{AS3,AS5}<AS6 (X<Y: X customer of Y).
func paperFig2(t *testing.T) *topo.Graph {
	t.Helper()
	g := topo.NewGraph()
	for _, e := range [][2]topo.ASN{{1, 2}, {2, 4}, {4, 3}, {4, 5}, {3, 6}, {5, 6}} {
		if err := g.AddCustomerProvider(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAnnouncePropagatesEverywhere(t *testing.T) {
	g := paperFig2(t)
	n := New(g, nil)
	if _, err := n.Announce(1, pfx, bgp.C(1, 200)); err != nil {
		t.Fatal(err)
	}
	for _, asn := range n.ASes() {
		rt, ok := n.Router(asn).BestRoute(pfx)
		if !ok {
			t.Fatalf("AS%d has no route", asn)
		}
		if asn != 1 && rt.ASPath.Origin() != 1 {
			t.Fatalf("AS%d origin=%d", asn, rt.ASPath.Origin())
		}
	}
	// Communities propagated through forward-all defaults.
	rt, _ := n.Router(6).BestRoute(pfx)
	if !rt.Communities.Has(bgp.C(1, 200)) {
		t.Fatalf("AS6 lost origin community: %v", rt.Communities)
	}
	// AS6 reached via shortest valley-free path: 6 gets the route through
	// 3 or 5 (both length 4: 3/5,4,2,1); tie-break = lower ASN 3.
	seq := rt.ASPath.Sequence()
	if len(seq) != 4 || seq[0] != 3 {
		t.Fatalf("AS6 path=%v", seq)
	}
}

func TestWithdrawReconverges(t *testing.T) {
	g := paperFig2(t)
	n := New(g, nil)
	if _, err := n.Announce(1, pfx); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Withdraw(1, pfx); err != nil {
		t.Fatal(err)
	}
	for _, asn := range n.ASes() {
		if _, ok := n.Router(asn).BestRoute(pfx); ok {
			t.Fatalf("AS%d still has a route after withdrawal", asn)
		}
	}
}

func TestGaoRexfordValleyPrevention(t *testing.T) {
	// Two providers peering, each with one customer. Customers must reach
	// each other through the peering, but one provider must never transit
	// the other's traffic upward (no valley).
	g := topo.NewGraph()
	g.AddPeering(10, 20)
	g.AddCustomerProvider(11, 10)
	g.AddCustomerProvider(21, 20)
	n := New(g, nil)
	if _, err := n.Announce(11, pfx); err != nil {
		t.Fatal(err)
	}
	// 21 must have the route via 20,10,11.
	rt, ok := n.Router(21).BestRoute(pfx)
	if !ok {
		t.Fatal("AS21 unreachable")
	}
	want := []uint32{20, 10, 11}
	seq := rt.ASPath.Sequence()
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("path=%v", seq)
		}
	}
	// Peer 20 must NOT re-export a peer route to its peer 10 (checked via
	// the valley-free property of all paths).
	if !g.ValleyFree(seq) {
		t.Fatalf("path %v is not valley-free", seq)
	}
}

func TestDataPlaneForwardDeliver(t *testing.T) {
	g := paperFig2(t)
	n := New(g, nil)
	n.Announce(1, pfx)
	dst := netx.NthAddr(pfx, 1)
	tr := n.Forward(6, dst)
	if tr.Outcome != Delivered || tr.FinalAS != 1 {
		t.Fatalf("trace=%+v", tr)
	}
	if len(tr.Hops) < 3 || tr.Hops[0] != 6 {
		t.Fatalf("hops=%v", tr.Hops)
	}
	if !n.Ping(6, dst) {
		t.Fatal("ping should succeed")
	}
	// Unknown destination.
	tr = n.Forward(6, netip.MustParseAddr("8.8.8.8"))
	if tr.Outcome != NoRoute {
		t.Fatalf("want no-route, got %v", tr.Outcome)
	}
	if n.Ping(6, netip.MustParseAddr("8.8.8.8")) {
		t.Fatal("ping to unknown must fail")
	}
}

func TestBlackholeStopsDataPlane(t *testing.T) {
	// AS3 offers RTBH. AS2 (attacker, on path) tags AS1's prefix.
	g := topo.NewGraph()
	g.AddCustomerProvider(1, 2)
	g.AddCustomerProvider(2, 3)
	g.AddCustomerProvider(4, 3)
	bh := bgp.C(3, 666)
	n := New(g, func(asn topo.ASN) router.Config {
		cfg := DefaultConfig(asn)
		if asn == 3 {
			cfg.Catalog = policy.NewCatalog(3).Add(policy.Service{Community: bh, Kind: policy.SvcBlackhole})
			cfg.BlackholeMinLen = 24
		}
		return cfg
	})
	// AS1 announces tagged with AS3's blackhole community (fat-finger or
	// malicious AS2 is equivalent here: community arrives at AS3).
	n.Announce(1, pfx, bh)
	rt, _ := n.Router(3).BestRoute(pfx)
	if !rt.Blackhole {
		t.Fatal("AS3 should null-route")
	}
	tr := n.Forward(4, netx.NthAddr(pfx, 1))
	if tr.Outcome != Blackholed || tr.FinalAS != 3 {
		t.Fatalf("trace=%+v", tr)
	}
	// AS2 itself still reaches AS1 (it is below the blackhole point).
	if !n.Ping(2, netx.NthAddr(pfx, 1)) {
		t.Fatal("AS2 should still reach AS1")
	}
}

func TestLookingGlass(t *testing.T) {
	g := paperFig2(t)
	n := New(g, nil)
	n.Announce(1, pfx, bgp.C(1, 200))
	lg := n.LookingGlass(6)
	rt, ok := lg.Route(pfx)
	if !ok || rt.ASPath.Origin() != 1 {
		t.Fatalf("lg route=%v ok=%v", rt, ok)
	}
	if _, ok := lg.Route(netx.MustPrefix("10.0.0.0/8")); ok {
		t.Fatal("glass resolved a prefix nobody announced")
	}
	// Glass at unknown AS.
	if _, ok := n.LookingGlass(999).Route(pfx); ok {
		t.Fatal("unknown AS glass must be empty")
	}
}

func TestTapObservesUpdatesAndWithdrawals(t *testing.T) {
	g := paperFig2(t)
	n := New(g, nil)
	var updates, withdrawals, to6 int
	n.Tap(func(from, to topo.ASN, p netip.Prefix, rt RouteRef) {
		if rt.Valid() {
			updates++
		} else {
			withdrawals++
		}
		if to == 6 {
			to6++
		}
	})
	// A tap scoped to AS6 sees the deliveries to AS6, withdrawals
	// included, and nothing else.
	var scoped, scopedWithdrawals int
	n.Tap(func(from, to topo.ASN, p netip.Prefix, rt RouteRef) {
		if to != 6 {
			t.Errorf("tap scoped to AS6 saw %d>%d", from, to)
		}
		scoped++
		if !rt.Valid() {
			scopedWithdrawals++
		}
	}, 6)
	n.Announce(1, pfx)
	if updates == 0 {
		t.Fatal("tap saw no updates")
	}
	n.Withdraw(1, pfx)
	if withdrawals == 0 {
		t.Fatal("tap saw no withdrawals")
	}
	if scoped != to6 || scopedWithdrawals == 0 {
		t.Fatalf("tap scoped to AS6 saw %d deliveries (%d withdrawals); %d went to AS6", scoped, scopedWithdrawals, to6)
	}
}

func TestConnectAndAddRouter(t *testing.T) {
	g := paperFig2(t)
	n := New(g, nil)
	n.AddRouter(router.Config{ASN: 99, Vendor: router.VendorJuniper})
	if err := n.Connect(99, 2, topo.RelProvider); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(99, 1000, topo.RelPeer); err == nil {
		t.Fatal("connect to missing router must fail")
	}
	if _, err := n.Announce(99, netx.MustPrefix("198.51.100.0/24")); err != nil {
		t.Fatal(err)
	}
	// The new stub's prefix reaches the whole network.
	if _, ok := n.Router(6).BestRoute(netx.MustPrefix("198.51.100.0/24")); !ok {
		t.Fatal("AS6 missing extra router's prefix")
	}
	// Unknown-AS announce errors.
	if _, err := n.Announce(12345, pfx); err == nil {
		t.Fatal("unknown announce must fail")
	}
	if _, err := n.Withdraw(12345, pfx); err == nil {
		t.Fatal("unknown withdraw must fail")
	}
}

// TestNetworkRoutersShareOneArena: every router of a network — the
// graph's ASes, an extra node AddRouter builds, the copy-on-write clones
// of a fork — is built on the network's one route arena and indexes its
// slots by that arena's prefix table, and building a network allocates
// no arena per AS. On a 512-AS tree simnet.New allocates 682 bytes per
// AS on every run (688 under -race); an empty arena is ~10 KB, so the
// bound, that figure and a small margin, catches one built per router.
func TestNetworkRoutersShareOneArena(t *testing.T) {
	const bytesPerAS = 720
	g := topo.NewGraph()
	for asn := topo.ASN(2); asn <= 512; asn++ {
		if err := g.AddCustomerProvider(asn, asn/2); err != nil {
			t.Fatal(err)
		}
	}
	onArena := func(n *Network, where string) {
		t.Helper()
		for _, asn := range n.ASes() {
			if n.Router(asn).Table() != n.Routes().Table() {
				t.Fatalf("%s: AS%d indexes its slots by a table not its network's arena's", where, asn)
			}
		}
	}
	n := New(g, nil)
	if r := n.AddRouter(router.Config{ASN: 999, Vendor: router.VendorJuniper}); r != n.Router(999) {
		t.Fatal("AddRouter returned a router the network does not hold")
	}
	if err := n.Connect(999, 512, topo.RelProvider); err != nil {
		t.Fatal(err)
	}
	onArena(n, "built")
	if _, err := n.Announce(999, pfx); err != nil {
		t.Fatal(err)
	}
	snap, err := n.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	f, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.Routes() == n.Routes() {
		t.Fatal("the fork stores its routes in the snapshot's arena")
	}
	for _, asn := range f.ASes() {
		f.MutableRouter(asn)
	}
	onArena(f, "forked")

	var before, after runtime.MemStats
	const runs = 4
	runtime.ReadMemStats(&before)
	for range runs {
		New(g, nil)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*g.NumASes())
	t.Logf("simnet.New allocates %.0f bytes per AS (bound %d)", got, bytesPerAS)
	if got > bytesPerAS {
		t.Errorf("simnet.New allocates %.0f bytes per AS, want at most %d", got, bytesPerAS)
	}
}

func TestPrependSteersPathSelection(t *testing.T) {
	// Figure 2: AS6 reaches p via AS3 (tie-break) until AS3:x3 prepending
	// makes the AS5 path shorter.
	g := paperFig2(t)
	prependComm := bgp.C(3, 103)
	n := New(g, func(asn topo.ASN) router.Config {
		cfg := DefaultConfig(asn)
		if asn == 3 {
			cfg.Catalog = policy.NewCatalog(3).Add(policy.Service{Community: prependComm, Kind: policy.SvcPrepend, Param: 3})
		}
		return cfg
	})
	// Baseline.
	n.Announce(1, pfx)
	rt, _ := n.Router(6).BestRoute(pfx)
	if rt.ASPath.Sequence()[0] != 3 {
		t.Fatalf("baseline path=%v", rt.ASPath)
	}
	// Attacker AS1 (origin side) retags with AS3's prepend community.
	n.Withdraw(1, pfx)
	n.Announce(1, pfx, prependComm)
	rt, _ = n.Router(6).BestRoute(pfx)
	if rt.ASPath.Sequence()[0] != 5 {
		t.Fatalf("steered path=%v (want via AS5)", rt.ASPath)
	}
}

func TestTransparentRouteServerOffPath(t *testing.T) {
	// Two members peer via a transparent route server (the IXP pattern).
	g := topo.NewGraph()
	g.AddAS(100)
	g.AddAS(200)
	n := New(g, nil)
	n.AddRouter(router.Config{
		ASN: 900, Vendor: router.VendorJuniper,
		Propagation: policy.PropForwardAll,
		Transparent: true, ReflectAll: true,
	})
	n.Connect(100, 900, topo.RelPeer)
	n.Connect(200, 900, topo.RelPeer)

	if _, err := n.Announce(100, pfx, bgp.C(900, 77)); err != nil {
		t.Fatal(err)
	}
	rt, ok := n.Router(200).BestRoute(pfx)
	if !ok {
		t.Fatal("member 200 missing route")
	}
	if rt.ASPath.Contains(900) {
		t.Fatalf("route server must stay off path: %v", rt.ASPath)
	}
	// The RS community (900:77) is off-path at AS200.
	if !rt.Communities.Has(bgp.C(900, 77)) {
		t.Fatal("RS community lost")
	}
	// Data plane: 200 -> RS -> 100 still delivers.
	tr := n.Forward(200, netx.NthAddr(pfx, 1))
	if tr.Outcome != Delivered || tr.FinalAS != 100 {
		t.Fatalf("trace=%+v", tr)
	}
}

func TestConvergenceBoundTriggers(t *testing.T) {
	g := paperFig2(t)
	n := New(g, nil)
	n.SetMaxDeliveries(1)
	if _, err := n.Announce(1, pfx); err == nil {
		t.Fatal("tiny bound should trip")
	}
}

func TestStepsAccumulate(t *testing.T) {
	g := paperFig2(t)
	n := New(g, nil)
	n.Announce(1, pfx)
	if n.Steps() == 0 {
		t.Fatal("steps should accumulate")
	}
}
