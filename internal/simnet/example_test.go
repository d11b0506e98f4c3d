package simnet_test

import (
	"fmt"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// Example walks a five-AS network end to end: AS1 announces a tagged
// prefix, the community propagates everywhere (nobody filters under the
// default JunOS-style forward-all handling), each AS's looking glass
// shows the route, the data plane forwards along it, and a withdrawal
// converges back to nothing.
func Example() {
	// Figure 1 style: AS1 is a stub customer of AS2; AS2 buys from the
	// tier-1s AS10 and AS20, which peer; AS30 is another stub under AS20.
	g := topo.NewGraph()
	for _, err := range []error{
		g.AddCustomerProvider(1, 2),
		g.AddCustomerProvider(2, 10),
		g.AddCustomerProvider(2, 20),
		g.AddPeering(10, 20),
		g.AddCustomerProvider(30, 20),
	} {
		if err != nil {
			panic(err)
		}
	}
	net := simnet.New(g, nil)

	// AS1 announces its prefix tagged "customer prefix" (AS1:200).
	prefix := netx.MustPrefix("203.0.113.0/24")
	steps, err := net.Announce(1, prefix, bgp.C(1, 200))
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged after %d update deliveries\n", steps)
	for _, asn := range net.ASes() {
		rt, _ := net.LookingGlass(asn).Route(prefix)
		fmt.Printf("AS%d: %s\n", asn, rt)
	}

	// Data plane: AS30 reaches AS1 through AS20 -> AS2 -> AS1.
	dst := netx.NthAddr(prefix, 1)
	tr := net.Forward(30, dst)
	fmt.Printf("traceroute from AS30 to %s: hops %v, delivered at AS%d: %v\n",
		dst, tr.Hops, tr.FinalAS, tr.Outcome == simnet.Delivered)
	fmt.Printf("ping: %v\n", net.Ping(30, dst))

	if _, err := net.Withdraw(1, prefix); err != nil {
		panic(err)
	}
	_, ok := net.LookingGlass(30).Route(prefix)
	fmt.Printf("after withdrawal AS30 has a route: %v\n", ok)
	// Output:
	// converged after 6 update deliveries
	// AS1: 203.0.113.0/24 via AS0 path [] lp 100 comm [1:200]
	// AS2: 203.0.113.0/24 via AS1 path [1] lp 140 comm [1:200]
	// AS10: 203.0.113.0/24 via AS2 path [2 1] lp 140 comm [1:200]
	// AS20: 203.0.113.0/24 via AS2 path [2 1] lp 140 comm [1:200]
	// AS30: 203.0.113.0/24 via AS20 path [20 2 1] lp 100 comm [1:200]
	// traceroute from AS30 to 203.0.113.1: hops [30 20 2 1], delivered at AS1: true
	// ping: true
	// after withdrawal AS30 has a route: false
}
