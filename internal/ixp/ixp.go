// Package ixp models an Internet Exchange Point route server with the
// community-controlled redistribution services of §5.3/§7.5: members tag
// routes with IXP:peer-AS to selectively advertise to a member and
// 0:peer-AS to suppress advertisement to a member. The route server is
// transparent (never on the AS path — which is why IXP communities show up
// "off-path" in §4.3) and publishes its community evaluation order, the
// property the route-manipulation attack exploits.
package ixp

import (
	"fmt"
	"sort"

	"bgpworms/internal/bgp"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// EvalOrder is the route server's community evaluation order for
// conflicting announce/suppress tags.
type EvalOrder int

// Evaluation orders.
const (
	// SuppressFirst handles "do not advertise to peer" before "advertise
	// to peer" — the order the paper verified at a major IXP, which makes
	// suppression win conflicts.
	SuppressFirst EvalOrder = iota
	// AnnounceFirst handles "advertise to peer" first, making explicit
	// announcement win conflicts.
	AnnounceFirst
)

// String names the order.
func (e EvalOrder) String() string {
	if e == AnnounceFirst {
		return "announce-first"
	}
	return "suppress-first"
}

// RouteServer is a transparent multilateral-peering route server.
type RouteServer struct {
	asn     topo.ASN
	order   EvalOrder
	members []topo.ASN
	rt      *router.Router
	net     *simnet.Network
}

// NewRouteServer creates a route server with the given AS number (used
// only as the community namespace and session identity; it never appears
// on AS paths). Member ASNs must fit in 16 bits to be addressable in
// community values.
func NewRouteServer(asn topo.ASN, order EvalOrder) *RouteServer {
	rs := &RouteServer{asn: asn, order: order}
	rs.rt = router.New(router.Config{
		ASN:         asn,
		Vendor:      router.VendorJuniper,
		Propagation: policy.PropForwardAll,
		Transparent: true,
		ReflectAll:  true,
		Catalog:     policy.NewCatalog(asn),
	})
	return rs
}

// ASN returns the route server's AS number.
func (rs *RouteServer) ASN() topo.ASN { return rs.asn }

// Order returns the published evaluation order.
func (rs *RouteServer) Order() EvalOrder { return rs.order }

// Router exposes the underlying speaker (for simnet attachment). In a
// forked world this resolves through the network, so callers read the
// fork's copy-on-write state.
func (rs *RouteServer) Router() *router.Router { return rs.router() }

// router resolves the route server's speaker in the attached network,
// falling back to the original before attachment.
func (rs *RouteServer) router() *router.Router {
	if rs.net != nil {
		if r := rs.net.Router(rs.asn); r != nil {
			return r
		}
	}
	return rs.rt
}

// mutableRouter resolves the speaker for mutation: in a forked world the
// sealed snapshot router is copy-on-written into the fork first.
func (rs *RouteServer) mutableRouter() *router.Router {
	if rs.net != nil {
		if r := rs.net.MutableRouter(rs.asn); r != nil {
			return r
		}
	}
	return rs.rt
}

// ForkInto clones the route server against a forked network: the member
// list is capacity-clamped so AddMember on the fork reallocates instead
// of reaching the snapshot's backing array.
func (rs *RouteServer) ForkInto(n *simnet.Network) *RouteServer {
	return &RouteServer{
		asn:     rs.asn,
		order:   rs.order,
		members: rs.members[:len(rs.members):len(rs.members)],
		rt:      rs.rt,
		net:     n,
	}
}

// Members lists member ASNs in ascending order.
func (rs *RouteServer) Members() []topo.ASN {
	out := append([]topo.ASN(nil), rs.members...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AnnounceToCommunity returns the "advertise to member" tag for a member.
func (rs *RouteServer) AnnounceToCommunity(member topo.ASN) bgp.Community {
	return bgp.C(uint16(rs.asn), uint16(member))
}

// SuppressToCommunity returns the "do not advertise to member" tag.
func (rs *RouteServer) SuppressToCommunity(member topo.ASN) bgp.Community {
	return bgp.C(0, uint16(member))
}

// AddMember registers a member and rebuilds the service catalog in the
// published evaluation order.
func (rs *RouteServer) AddMember(member topo.ASN) error {
	if member > 0xFFFF {
		return fmt.Errorf("ixp: member AS%d does not fit the 16-bit community format", member)
	}
	for _, m := range rs.members {
		if m == member {
			return fmt.Errorf("ixp: AS%d is already a member", member)
		}
	}
	rs.members = append(rs.members, member)
	rs.rebuildCatalog()
	return nil
}

func (rs *RouteServer) rebuildCatalog() {
	cat := policy.NewCatalog(rs.asn)
	add := func(kind policy.ServiceKind) {
		for _, m := range rs.Members() {
			switch kind {
			case policy.SvcNoAnnounceTo:
				cat.Add(policy.Service{Community: rs.SuppressToCommunity(m), Kind: kind, Param: uint32(m)})
			case policy.SvcAnnounceTo:
				cat.Add(policy.Service{Community: rs.AnnounceToCommunity(m), Kind: kind, Param: uint32(m)})
			}
		}
	}
	if rs.order == SuppressFirst {
		add(policy.SvcNoAnnounceTo)
		add(policy.SvcAnnounceTo)
	} else {
		add(policy.SvcAnnounceTo)
		add(policy.SvcNoAnnounceTo)
	}
	rs.mutableRouter().Config().Catalog = cat
}

// Attach inserts the route server into a network and wires sessions to
// every registered member (members must already exist in the network).
func (rs *RouteServer) Attach(n *simnet.Network) error {
	rs.net = n
	n.AddRouter(rs.rt)
	for _, m := range rs.Members() {
		if err := n.Connect(m, rs.asn, topo.RelPeer); err != nil {
			return err
		}
	}
	return nil
}
