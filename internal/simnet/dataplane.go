package simnet

import (
	"net/netip"

	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// Outcome classifies what happened to a forwarded packet.
type Outcome int

// Forwarding outcomes.
const (
	// Delivered: the packet reached the AS originating a covering prefix.
	Delivered Outcome = iota
	// Blackholed: an AS on the path null-routed the destination (RTBH).
	Blackholed
	// NoRoute: an AS had no FIB entry for the destination.
	NoRoute
	// ForwardingLoop: the AS-level path revisited an AS.
	ForwardingLoop
)

// Trace is an AS-level forwarding trace — the simulator's traceroute.
type Trace struct {
	Src     topo.ASN
	Dst     netip.Addr
	Hops    []topo.ASN // ASes traversed, source first
	Outcome Outcome
	// FinalAS is where the packet ended up (delivery, drop, or no-route
	// point).
	FinalAS topo.ASN
}

// maxForwardHops caps AS-level forwarding; Internet AS paths rarely exceed
// a dozen hops.
const maxForwardHops = 64

// Forward walks the data plane from srcAS toward dst using each hop's FIB,
// the mechanism behind every in-the-wild validation in §7 (Atlas pings and
// traceroutes are reachability tests over exactly this).
func (n *Network) Forward(srcAS topo.ASN, dst netip.Addr) Trace {
	tr := Trace{Src: srcAS, Dst: dst}
	cur := srcAS
	visited := make(map[topo.ASN]bool)
	for hop := 0; hop < maxForwardHops; hop++ {
		tr.Hops = append(tr.Hops, cur)
		tr.FinalAS = cur
		if visited[cur] {
			tr.Outcome = ForwardingLoop
			return tr
		}
		visited[cur] = true
		r := n.routers[cur]
		if r == nil {
			tr.Outcome = NoRoute
			return tr
		}
		rt, ok := r.LookupFIB(dst)
		if !ok {
			tr.Outcome = NoRoute
			return tr
		}
		if rt.Blackhole {
			tr.Outcome = Blackholed
			return tr
		}
		if rt.NextHopAS == 0 {
			tr.Outcome = Delivered
			return tr
		}
		cur = rt.NextHopAS
	}
	tr.Outcome = ForwardingLoop
	return tr
}

// Ping reports binary reachability from srcAS to dst — the Atlas ICMP
// test of §7.6.
func (n *Network) Ping(srcAS topo.ASN, dst netip.Addr) bool {
	return n.Forward(srcAS, dst).Outcome == Delivered
}

// LookingGlass is a read-only RIB view at one AS, the validation tool used
// throughout §7 ("we examined the pre￿xes using the target's looking
// glass, before and after these announcements").
type LookingGlass struct {
	asn topo.ASN
	n   *Network
}

// LookingGlass returns the glass for asn (nil router yields empty views).
func (n *Network) LookingGlass(asn topo.ASN) *LookingGlass {
	return &LookingGlass{asn: asn, n: n}
}

// Route returns the best route for exactly p.
func (g *LookingGlass) Route(p netip.Prefix) (*policy.Route, bool) {
	r := g.n.routers[g.asn]
	if r == nil {
		return nil, false
	}
	return r.BestRoute(p)
}
