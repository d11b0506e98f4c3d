package simnet

import (
	"slices"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/topo"
)

// TestForwardingLoopDetected crafts inconsistent FIBs (two ASes pointing
// at each other) by injecting routes directly, and verifies the data
// plane reports a loop instead of spinning.
func TestForwardingLoopDetected(t *testing.T) {
	g := topo.NewGraph()
	g.AddPeering(1, 2)
	n := New(g, nil)
	p := netx.MustPrefix("203.0.113.0/24")

	mk := func(via topo.ASN) *policy.Route {
		r := policy.NewLocalRoute(p)
		r.ASPath = bgp.Path(via, 99)
		return r
	}
	// Inject contradicting state directly at the routers (bypassing
	// convergence, as a buggy or transiently-converging network would).
	if res, _ := n.Router(1).ReceiveUpdate(2, mk(2)); res != router.ImportAccepted {
		t.Fatal(res)
	}
	if res, _ := n.Router(2).ReceiveUpdate(1, mk(1)); res != router.ImportAccepted {
		t.Fatal(res)
	}
	tr := n.Forward(1, netx.NthAddr(p, 1))
	if tr.Outcome != ForwardingLoop {
		t.Fatalf("want loop, got %+v", tr)
	}
	if len(tr.Hops) < 2 {
		t.Fatalf("hops=%v", tr.Hops)
	}
}

// TestFlapStormConvergence exercises repeated announce/withdraw cycles
// and verifies state returns exactly to baseline each time; then runs
// the same storm as one Apply, which must cost every op what it cost on
// its own and end in the same baseline.
func TestFlapStormConvergence(t *testing.T) {
	g := topo.NewGraph()
	for _, e := range [][2]topo.ASN{{1, 2}, {2, 4}, {4, 3}, {4, 5}, {3, 6}, {5, 6}} {
		if err := g.AddCustomerProvider(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	n := New(g, nil)
	p := netx.MustPrefix("203.0.113.0/24")
	var ops []Op
	var serial []int
	for i := 0; i < 25; i++ {
		d, err := n.Announce(1, p, bgp.C(1, uint16(i)))
		if err != nil {
			t.Fatal(err)
		}
		rt, ok := n.Router(6).BestRoute(p)
		if !ok || !rt.Communities.Has(bgp.C(1, uint16(i))) {
			t.Fatalf("iteration %d: AS6 state stale: %v", i, rt)
		}
		w, err := n.Withdraw(1, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, asn := range n.ASes() {
			if _, ok := n.Router(asn).BestRoute(p); ok {
				t.Fatalf("iteration %d: AS%d kept a withdrawn route", i, asn)
			}
		}
		ops = append(ops, Op{AS: 1, Prefix: p, Communities: []bgp.Community{bgp.C(1, uint16(i))}}, Op{AS: 1, Prefix: p, Withdraw: true})
		serial = append(serial, d, w)
	}
	m := New(g, nil)
	batched, err := m.Apply(ops...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(batched, serial) {
		t.Fatalf("storm as one Apply delivered %v per op, one at a time %v", batched, serial)
	}
	for _, asn := range m.ASes() {
		if _, ok := m.Router(asn).BestRoute(p); ok {
			t.Fatalf("after the batched storm AS%d kept a withdrawn route", asn)
		}
	}
}

// TestConcurrentPrefixIndependence verifies prefixes converge
// independently: withdrawing one never disturbs another.
func TestConcurrentPrefixIndependence(t *testing.T) {
	g := topo.NewGraph()
	for _, e := range [][2]topo.ASN{{1, 2}, {2, 4}, {4, 3}, {3, 6}} {
		if err := g.AddCustomerProvider(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	n := New(g, nil)
	p1 := netx.MustPrefix("203.0.113.0/24")
	p2 := netx.MustPrefix("198.51.100.0/24")
	if _, err := n.Announce(1, p1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Announce(1, p2); err != nil {
		t.Fatal(err)
	}
	before, _ := n.Router(6).BestRoute(p2)
	if _, err := n.Withdraw(1, p1); err != nil {
		t.Fatal(err)
	}
	after, ok := n.Router(6).BestRoute(p2)
	if !ok || after.ASPath.String() != before.ASPath.String() {
		t.Fatal("withdrawing p1 disturbed p2")
	}
}
