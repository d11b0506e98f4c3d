package policy

import (
	"bgpworms/internal/bgp"
	"bgpworms/internal/topo"
)

// Term is one route-map clause. All non-zero match conditions must hold
// for the term to fire. When it fires, the term's set-actions are applied
// and evaluation stops unless Continue is set — exactly the first-match
// semantics whose ordering §6.3 shows to be security-relevant.
type Term struct {
	Name string

	// Match conditions; zero values mean "any".
	MatchPrefix    *PrefixList
	MatchCommunity *CommunityList
	MatchMinLen    int
	MatchMaxLen    int
	MatchNeighbor  topo.ASN
	MatchRel       topo.Rel // topo.RelNone = any

	// Deny rejects the route outright when the term fires.
	Deny bool

	// Set-actions, applied on a permit.
	SetLocalPref      *uint32
	AddCommunities    []bgp.Community
	DeleteCommunities *CommunityList
	PrependSelf       int
	SetBlackhole      bool

	// Continue proceeds to the next term after applying actions.
	Continue bool
}

func (t *Term) matches(rt *Route) bool {
	if t.MatchPrefix != nil && !t.MatchPrefix.Matches(rt.Prefix) {
		return false
	}
	if t.MatchCommunity != nil && !t.MatchCommunity.MatchesAny(rt.Communities) {
		return false
	}
	if t.MatchMinLen != 0 && rt.Prefix.Bits() < t.MatchMinLen {
		return false
	}
	if t.MatchMaxLen != 0 && rt.Prefix.Bits() > t.MatchMaxLen {
		return false
	}
	if t.MatchNeighbor != 0 && rt.NextHopAS != t.MatchNeighbor {
		return false
	}
	if t.MatchRel != topo.RelNone && rt.FromRel != t.MatchRel {
		return false
	}
	return true
}

func (t *Term) apply(rt *Route, localASN topo.ASN) {
	if t.SetLocalPref != nil {
		rt.LocalPref = *t.SetLocalPref
	}
	if len(t.AddCommunities) > 0 {
		rt.Communities = rt.Communities.AddAll(t.AddCommunities...)
	}
	if t.DeleteCommunities != nil {
		rt.Communities = rt.Communities.RemoveIf(func(c bgp.Community) bool {
			for _, p := range t.DeleteCommunities.Patterns {
				if p.Matches(c) {
					return true
				}
			}
			return false
		})
	}
	if t.PrependSelf > 0 {
		rt.ASPath = rt.ASPath.Prepend(localASN, t.PrependSelf)
	}
	if t.SetBlackhole {
		rt.Blackhole = true
	}
}

// RouteMap is an ordered list of terms with a configurable default.
// Term order is preserved verbatim: routers evaluate rules "in a specified
// order that is independent of the community value" (§6.3), so swapping
// two terms can change security outcomes — see the RTBH misconfiguration.
type RouteMap struct {
	Name string
	// Terms in evaluation order.
	Terms []Term
	// DefaultDeny rejects routes matched by no term (vendor default);
	// unset means permit-unmatched.
	DefaultDeny bool
}

// Apply evaluates rm against rt, mutating it in place, and reports whether
// the route is accepted. localASN is used by prepend actions.
func (rm *RouteMap) Apply(rt *Route, localASN topo.ASN) bool {
	if rm == nil {
		return true
	}
	matchedAny := false
	for i := range rm.Terms {
		t := &rm.Terms[i]
		if !t.matches(rt) {
			continue
		}
		matchedAny = true
		if t.Deny {
			return false
		}
		t.apply(rt, localASN)
		if !t.Continue {
			return true
		}
	}
	if matchedAny {
		return true
	}
	return !rm.DefaultDeny
}
