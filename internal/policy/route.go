// Package policy holds the routing-policy vocabulary the router and the
// world generator share: the Route itself, prefix lists with ge/le
// semantics (the IRR customer filters), ordered catalogs of
// community-triggered services (RTBH, prepend, local-pref, selective
// announcement — the Bonaventure/Donnet taxonomy from §2) whose order is
// observable behaviour (§5.3), and community propagation modes (§4.4).
package policy

import (
	"fmt"
	"net/netip"

	"bgpworms/internal/bgp"
	"bgpworms/internal/topo"
)

// DefaultLocalPref is the local preference assigned to routes when no
// policy overrides it.
const DefaultLocalPref uint32 = 100

// Route is the AS-level unit of routing state flowing between policy,
// router, and simulator. NextHopAS identifies the neighbor the route was
// learned from (0 for locally originated prefixes).
type Route struct {
	Prefix      netip.Prefix
	ASPath      bgp.ASPath
	Communities bgp.CommunitySet
	Origin      bgp.Origin
	MED         uint32
	LocalPref   uint32
	NextHopAS   topo.ASN
	// FromRel is the business relationship of the neighbor the route was
	// learned from, as seen locally.
	FromRel topo.Rel
	// Blackhole marks the route as null-routed at this AS: it attracts
	// traffic and drops it (§5.1).
	Blackhole bool
}

// NewLocalRoute originates prefix locally.
func NewLocalRoute(prefix netip.Prefix) *Route {
	return &Route{
		Prefix:    prefix.Masked(),
		Origin:    bgp.OriginIGP,
		LocalPref: DefaultLocalPref,
	}
}

// String renders a compact single-line view for looking glasses.
func (r *Route) String() string {
	bh := ""
	if r.Blackhole {
		bh = " [blackhole]"
	}
	return fmt.Sprintf("%s via AS%d path [%s] lp %d comm [%s]%s",
		r.Prefix, r.NextHopAS, r.ASPath, r.LocalPref, r.Communities, bh)
}
