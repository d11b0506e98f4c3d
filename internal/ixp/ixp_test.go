package ixp

import (
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

var pfx = netx.MustPrefix("203.0.113.0/24")

// newIXPNet wires members 100, 200, 300 to a route server AS 900.
func newIXPNet(t *testing.T, order EvalOrder) (*simnet.Network, *RouteServer) {
	t.Helper()
	g := topo.NewGraph()
	for _, m := range []topo.ASN{100, 200, 300} {
		g.AddAS(m)
	}
	n := simnet.New(g, nil)
	rs := NewRouteServer(900, order)
	for _, m := range []topo.ASN{100, 200, 300} {
		if err := rs.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Attach(n); err != nil {
		t.Fatal(err)
	}
	return n, rs
}

func TestMemberManagement(t *testing.T) {
	rs := NewRouteServer(900, SuppressFirst)
	if err := rs.AddMember(100); err != nil {
		t.Fatal(err)
	}
	if err := rs.AddMember(100); err == nil {
		t.Fatal("duplicate member must fail")
	}
	if err := rs.AddMember(70000); err == nil {
		t.Fatal("oversized member ASN must fail")
	}
	if rs.ASN() != 900 || rs.Order() != SuppressFirst {
		t.Fatal("accessors wrong")
	}
	if rs.AnnounceToCommunity(100) != bgp.C(900, 100) {
		t.Fatal("announce community wrong")
	}
	if rs.SuppressToCommunity(100) != bgp.C(0, 100) {
		t.Fatal("suppress community wrong")
	}
	if SuppressFirst.String() == "" || AnnounceFirst.String() == "" {
		t.Fatal("order strings empty")
	}
}

func TestPlainRedistributionToAllMembers(t *testing.T) {
	n, rs := newIXPNet(t, SuppressFirst)
	if _, err := n.Announce(100, pfx); err != nil {
		t.Fatal(err)
	}
	for _, m := range []topo.ASN{200, 300} {
		rt, ok := n.Router(m).BestRoute(pfx)
		if !ok {
			t.Fatalf("member %d missing route", m)
		}
		if rt.ASPath.Contains(900) {
			t.Fatalf("RS on path at member %d: %v", m, rt.ASPath)
		}
		if rt.ASPath.Origin() != 100 {
			t.Fatalf("origin=%d", rt.ASPath.Origin())
		}
	}
	if _, ok := rs.router().Advertised(200, pfx); !ok {
		t.Fatal("route server should have advertised the prefix to member 200")
	}
}

func TestSelectiveAnnounce(t *testing.T) {
	n, rs := newIXPNet(t, SuppressFirst)
	// Announce only to member 200.
	if _, err := n.Announce(100, pfx, rs.AnnounceToCommunity(200)); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Router(200).BestRoute(pfx); !ok {
		t.Fatal("member 200 should have the route")
	}
	if _, ok := n.Router(300).BestRoute(pfx); ok {
		t.Fatal("member 300 must not have the route")
	}
}

func TestSuppressTo(t *testing.T) {
	n, _ := newIXPNet(t, SuppressFirst)
	rs := NewRouteServer(900, SuppressFirst) // for community construction only
	if _, err := n.Announce(100, pfx, rs.SuppressToCommunity(300)); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Router(200).BestRoute(pfx); !ok {
		t.Fatal("member 200 should have the route")
	}
	if _, ok := n.Router(300).BestRoute(pfx); ok {
		t.Fatal("member 300 must be suppressed")
	}
}

// The §7.5 route-manipulation attack: conflicting announce-to and
// suppress-to tags. With the published suppress-first order, suppression
// wins and the attackee (member 200) loses the route.
func TestConflictResolutionByEvaluationOrder(t *testing.T) {
	run := func(order EvalOrder) bool {
		g := topo.NewGraph()
		for _, m := range []topo.ASN{100, 200, 300} {
			g.AddAS(m)
		}
		n := simnet.New(g, nil)
		rs := NewRouteServer(900, order)
		for _, m := range []topo.ASN{100, 200, 300} {
			rs.AddMember(m)
		}
		rs.Attach(n)
		if _, err := n.Announce(100, pfx, rs.AnnounceToCommunity(200), rs.SuppressToCommunity(200)); err != nil {
			t.Fatal(err)
		}
		_, ok := n.Router(200).BestRoute(pfx)
		return ok
	}
	if run(SuppressFirst) {
		t.Fatal("suppress-first: member 200 must NOT get the route")
	}
	if !run(AnnounceFirst) {
		t.Fatal("announce-first: member 200 must get the route")
	}
}

func TestAttachFailsForUnknownMember(t *testing.T) {
	g := topo.NewGraph()
	g.AddAS(100)
	n := simnet.New(g, nil)
	rs := NewRouteServer(900, SuppressFirst)
	rs.AddMember(100)
	rs.AddMember(200) // not in the network
	if err := rs.Attach(n); err == nil {
		t.Fatal("attach with missing member must fail")
	}
}

func TestDataPlaneThroughFabric(t *testing.T) {
	n, _ := newIXPNet(t, SuppressFirst)
	n.Announce(100, pfx)
	tr := n.Forward(300, netx.NthAddr(pfx, 7))
	if tr.Outcome != simnet.Delivered || tr.FinalAS != 100 {
		t.Fatalf("trace=%+v", tr)
	}
}
