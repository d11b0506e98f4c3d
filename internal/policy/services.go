package policy

import (
	"bgpworms/internal/bgp"
	"bgpworms/internal/topo"
)

// ServiceKind enumerates the community-triggered action classes of the
// Bonaventure/Donnet taxonomy the paper uses in §2: route selection
// (local-pref, prepending), selective announcement, route suppression and
// blackholing. Informational tagging triggers no action and is a router
// session property (router.Config.IngressTags), not a service.
type ServiceKind int

// Service kinds.
const (
	// SvcBlackhole null-routes the tagged prefix (RTBH, §5.1).
	SvcBlackhole ServiceKind = iota
	// SvcPrepend prepends the provider's ASN Param times on export.
	SvcPrepend
	// SvcLocalPref sets local preference to Param on ingress.
	SvcLocalPref
	// SvcAnnounceTo restricts export of the route to neighbor Param
	// (selective announcement; at IXP route servers "announce to peer").
	SvcAnnounceTo
	// SvcNoAnnounceTo suppresses export of the route to neighbor Param.
	SvcNoAnnounceTo
	// SvcNoExport suppresses export to everyone (provider-scoped
	// NO_EXPORT equivalent).
	SvcNoExport
)

// String names the kind.
func (k ServiceKind) String() string {
	switch k {
	case SvcBlackhole:
		return "blackhole"
	case SvcPrepend:
		return "prepend"
	case SvcLocalPref:
		return "local-pref"
	case SvcAnnounceTo:
		return "announce-to"
	case SvcNoAnnounceTo:
		return "no-announce-to"
	case SvcNoExport:
		return "no-export"
	default:
		return "unknown"
	}
}

// Service binds a community value owned by an AS to an action.
type Service struct {
	Community bgp.Community
	Kind      ServiceKind
	// Param is kind-specific: prepend count, local-pref value, or target
	// neighbor ASN.
	Param uint32
	// CustomerOnly restricts the action to routes received from BGP
	// customers — the relationship gating that §7.4 found makes steering
	// attacks hard ("providers only act on communities set by their
	// customers").
	CustomerOnly bool
}

// Catalog is the ordered list of community services an AS offers. Order is
// the evaluation order, which §5.3/§7.5 show to be observable and
// exploitable when services conflict (no-announce vs announce at an IXP
// route server).
type Catalog struct {
	Owner    topo.ASN
	Services []Service
}

// NewCatalog returns an empty catalog for owner.
func NewCatalog(owner topo.ASN) *Catalog { return &Catalog{Owner: owner} }

// Clone returns a copy with a privately owned service list, so a forked
// world can Add services without reaching the snapshot it forked from.
func (c *Catalog) Clone() *Catalog {
	if c == nil {
		return nil
	}
	return &Catalog{Owner: c.Owner, Services: append([]Service(nil), c.Services...)}
}

// Add appends svc to the evaluation order.
func (c *Catalog) Add(svc Service) *Catalog {
	c.Services = append(c.Services, svc)
	return c
}

// Lookup returns the first service bound to community, honoring order.
func (c *Catalog) Lookup(comm bgp.Community) (Service, bool) {
	if c == nil {
		return Service{}, false
	}
	for _, s := range c.Services {
		if s.Community == comm {
			return s, true
		}
	}
	return Service{}, false
}

// Active returns every service triggered by the route's communities, in
// catalog order. fromCustomer gates CustomerOnly services.
func (c *Catalog) Active(cs bgp.CommunitySet, fromCustomer bool) []Service {
	if c == nil {
		return nil
	}
	var out []Service
	for _, s := range c.Services {
		if s.CustomerOnly && !fromCustomer {
			continue
		}
		if cs.Has(s.Community) {
			out = append(out, s)
		}
	}
	return out
}

// BlackholeCommunity returns the catalog's blackhole trigger, if any.
func (c *Catalog) BlackholeCommunity() (bgp.Community, bool) {
	if c == nil {
		return 0, false
	}
	for _, s := range c.Services {
		if s.Kind == SvcBlackhole {
			return s.Community, true
		}
	}
	return 0, false
}

// PropagationMode captures the per-AS community forwarding behaviour whose
// diversity §4.4 measures: "some remove all communities, some do not
// tamper with them at all, while others act upon and remove communities
// directed at them and leave the rest in place."
type PropagationMode int

// Propagation modes.
const (
	// PropForwardAll relays every received community untouched (the
	// JunOS-style default, §6.1).
	PropForwardAll PropagationMode = iota
	// PropStripAll removes all communities on export (the Cisco-style
	// behaviour when send-community is not configured, §6.1).
	PropStripAll
	// PropActStripOwn removes communities addressed to this AS and
	// forwards the rest.
	PropActStripOwn
	// PropStripForeign keeps only communities this AS itself owns or
	// well-known values, stripping foreign ones.
	PropStripForeign
)

// String names the mode.
func (m PropagationMode) String() string {
	switch m {
	case PropForwardAll:
		return "forward-all"
	case PropStripAll:
		return "strip-all"
	case PropActStripOwn:
		return "act-strip-own"
	case PropStripForeign:
		return "strip-foreign"
	default:
		return "unknown"
	}
}

// Keeps reports whether an AS with 16-bit community identity self
// forwards community c under the mode — ApplyPropagation's rule for one
// community.
func (m PropagationMode) Keeps(self uint16, c bgp.Community) bool {
	switch m {
	case PropStripAll:
		return false
	case PropActStripOwn:
		return c.ASN() != self
	case PropStripForeign:
		return c.ASN() == self || c.IsWellKnown()
	default:
		return true
	}
}

// ApplyPropagation transforms an outgoing community set per mode for an AS
// with the given 16-bit community-ASN identity.
func ApplyPropagation(mode PropagationMode, self uint16, cs bgp.CommunitySet) bgp.CommunitySet {
	switch mode {
	case PropStripAll:
		return nil
	case PropActStripOwn, PropStripForeign:
		return cs.Clone().RemoveIf(func(c bgp.Community) bool { return !mode.Keeps(self, c) })
	default:
		return cs.Clone()
	}
}
