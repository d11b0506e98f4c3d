package attack

import (
	"fmt"
	"net/netip"

	"bgpworms/internal/atlas"
	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/scenario"
	"bgpworms/internal/topo"
)

// PropagationReport is the §7.2 benign-community propagation check.
type PropagationReport struct {
	Injector string
	// ForwardingTransits carried the benign community intact on their
	// best route.
	ForwardingTransits int
	// TotalTransits saw the probe prefix at all.
	TotalTransits int
	// ForwardingUpstreams counts direct upstreams that propagated.
	ForwardingUpstreams int
}

// PropagationCheck announces a probe tagged with a benign community
// ("low-order bits that we have not observed in the wild", §7.2) and
// counts propagating transit ASes.
func (l *Lab) PropagationCheck(inj *Injector) (*PropagationReport, error) {
	probe := inj.OwnPrefix
	benign := bgp.C(uint16(inj.ASN), 65432&0xFFFF)
	if err := l.Announce(inj, probe, benign); err != nil {
		return nil, err
	}
	defer l.Withdraw(inj, probe)
	rep := &PropagationReport{Injector: inj.Name}
	for _, asn := range l.W.TransitASes() {
		rt, ok := l.W.Net.Router(asn).BestRoute(probe)
		if !ok {
			continue
		}
		rep.TotalTransits++
		if rt.Communities.Has(benign) {
			rep.ForwardingTransits++
		}
	}
	for _, up := range inj.Upstreams {
		r := l.W.Net.Router(up)
		if r == nil {
			continue
		}
		// Check what the upstream advertises onward: any neighbor view
		// carrying the community counts.
		for _, nb := range r.Neighbors() {
			if nb == inj.ASN {
				continue
			}
			if adv, ok := r.Advertised(nb, probe); ok && adv.Communities.Has(benign) {
				rep.ForwardingUpstreams++
				break
			}
		}
	}
	return rep, nil
}

// RunRTBH executes §7.3. Without hijack: announce an own /24 tagged with
// a remote provider's blackhole community and verify the data plane dies
// at the target. With hijack: announce a victim's prefix the same way
// from the research network, which requires an IRR update to pass origin
// validation.
func (l *Lab) RunRTBH(hijack bool) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Blackholing", Hijack: hijack, Difficulty: scenario.Easy}
	inj := l.Research

	targets, err := l.FindRTBHTargets(inj, inj.OwnPrefix)
	if err != nil {
		return nil, err
	}
	// Pick a target at least two AS hops away (not a direct upstream),
	// as §7.3 does.
	var target RTBHTarget
	for _, t := range targets {
		if t.HopsAway >= 2 {
			target = t
			break
		}
	}
	if target.AS == 0 {
		return nil, fmt.Errorf("attack: no RTBH target beyond one hop")
	}
	res.Notef("target AS%d offers RTBH via %s, %d hops from injector", target.AS, target.Community, target.HopsAway)

	var victim netip.Prefix
	if hijack {
		// Hijack a stub that is not a customer of our upstreams: against
		// a directly-attached victim the upstream prefers the equal-length
		// customer route and the hijack only poisons elsewhere.
		stub := l.pickRemoteVictim()
		if stub == 0 {
			return nil, fmt.Errorf("attack: no IPv4-originating stub to hijack")
		}
		victim = l.W.Origins[stub][0]
		res.Insights = append(res.Insights,
			"origin validation at the first upstream rejected the hijack until the IRR was updated",
			"hijack+blackhole denies service universally, not just near the attacker")
		// First attempt without IRR: the validating upstream rejects it.
		if err := l.Announce(inj, victim, target.Community); err != nil {
			return nil, err
		}
		if _, ok := l.W.Net.Router(inj.Upstreams[0]).BestRoute(victim.Masked()); ok {
			rt, _ := l.W.Net.Router(inj.Upstreams[0]).BestRoute(victim.Masked())
			if rt.NextHopAS == inj.ASN {
				res.Notef("WARNING: upstream accepted hijack without IRR")
			}
		}
		l.Withdraw(inj, victim)
		l.UpdateIRR(inj, victim)
	} else {
		victim = researchPrefix
		res.Insights = append(res.Insights,
			"accepted independent of AS relationships",
			"preferred even though the attacker's AS path is longer")
	}

	dst := netx.NthAddr(victim, 9)

	// Baseline reachability (without the blackhole tag).
	if err := l.Announce(inj, victim); err != nil {
		return nil, err
	}
	before := l.Atlas.PingAll(dst)
	res.Notef("baseline: %d/%d vantage points reach %s", before.ResponsiveCount(), len(l.Atlas.VPs()), dst)

	// Attack: re-announce tagged.
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	if err := l.Announce(inj, victim, target.Community); err != nil {
		return nil, err
	}

	// Looking-glass validation at the target: next-hop must be the null
	// interface (Blackhole flag).
	lg := l.W.Net.LookingGlass(target.AS)
	rt, ok := lg.Route(victim)
	if !ok {
		res.Notef("target looking glass has no route")
	} else {
		res.Notef("target LG: %s", rt)
		// Success: the target null-routes the prefix on the attacker's
		// announcement ("the next-hop address changed to a null interface
		// address", §7.3).
		if rt.Blackhole && rt.ASPath.Contains(uint32(inj.ASN)) {
			res.Success = true
		}
	}
	after := l.Atlas.PingAll(dst)
	lost := len(atlas.LostVPs(before, after))
	res.Notef("after attack: %d/%d vantage points reach %s (%d lost)",
		after.ResponsiveCount(), len(l.Atlas.VPs()), dst, lost)
	if lost == 0 && res.Success {
		res.Notef("note: no sampled vantage point routes via the target")
	}

	// Cleanup.
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	return res, nil
}

// pickRemoteVictim returns a stub with an IPv4 allocation that is not
// directly attached to either research upstream, falling back to any
// IPv4-originating stub. Returns 0 only when no stub originates IPv4 at
// all — callers must treat that as "attack not launchable".
func (l *Lab) pickRemoteVictim() topo.ASN {
	ups := map[topo.ASN]bool{}
	for _, u := range l.Research.Upstreams {
		ups[u] = true
	}
	fallback := topo.ASN(0)
	for _, s := range l.W.StubASes() {
		if len(l.W.Origins[s]) == 0 || !l.W.Origins[s][0].Addr().Is4() {
			continue
		}
		if fallback == 0 {
			fallback = s
		}
		attached := false
		for _, p := range l.W.Graph.Providers(s) {
			if ups[p] {
				attached = true
			}
		}
		if !attached {
			return s
		}
	}
	return fallback
}

// RunSteeringLocalPref executes §7.4's local-preference steering: tag the
// target's "customer fallback" community and verify the target installs
// the route with the lowered preference. Relationship gating makes the
// multi-hop variant hard.
func (l *Lab) RunSteeringLocalPref(hijack bool) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Traffic Steering (local pref)", Hijack: hijack, Difficulty: scenario.Hard}
	inj := l.Research
	res.Insights = append(res.Insights,
		"providers only act on communities set by their customers",
		"the flattening of the Internet makes multi-hop steering hard to launch")
	if hijack {
		res.Insights = append(res.Insights, "IRR origin validation is typically checked but can be circumvented")
	}

	// Find a target: a provider of one of our upstreams offering a
	// local-pref service, where the upstream is the target's customer —
	// the gate §7.4 identifies.
	var target topo.ASN
	var via topo.ASN
	var svc policy.Service
	for _, up := range inj.Upstreams {
		for _, prov := range l.W.Graph.Providers(up) {
			for _, s := range l.W.Catalogs[prov].Services {
				if s.Kind == policy.SvcLocalPref && s.Param < policy.DefaultLocalPref {
					target, via, svc = prov, up, s
					break
				}
			}
			if target != 0 {
				break
			}
		}
		if target != 0 {
			break
		}
	}
	if target == 0 {
		res.Notef("no local-pref target reachable through a customer chain; attack not launchable")
		return res, nil
	}
	res.Notef("target AS%d offers %s=%d via customer AS%d", target, svc.Community, svc.Param, via)

	victim := researchPrefix
	if hijack {
		stub := l.W.StubASes()[1]
		victim = l.W.Origins[stub][0]
		l.UpdateIRR(inj, victim)
	}

	if err := l.Announce(inj, victim, svc.Community); err != nil {
		return nil, err
	}
	rt, ok := l.W.Net.Router(target).BestRoute(victim)
	if ok {
		res.Notef("target LG: %s", rt)
		// Success: either the tagged path carries the lowered pref, or
		// the target moved its best route off the tagged path entirely
		// (the fallback worked).
		if rt.LocalPref == svc.Param {
			res.Success = true
			res.Notef("requested 'customer fallback' preference %d is installed", svc.Param)
		} else if !rt.ASPath.Contains(uint32(via)) {
			res.Success = true
			res.Notef("best path moved away from AS%d after depreferencing", via)
		}
	} else {
		res.Notef("target has no route for %s", victim)
	}
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	return res, nil
}

// RunSteeringPrepend executes §7.4's prepending variant: tag the target's
// prepend community and verify paths through the target lengthen, moving
// best paths elsewhere (Figure 2/8a).
func (l *Lab) RunSteeringPrepend(hijack bool) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Traffic Steering (prepending)", Hijack: hijack, Difficulty: scenario.Hard}
	inj := l.Research
	res.Insights = append(res.Insights,
		"providers only act on communities set by their customers",
		"prepending has low evaluation order, so the attack may not take effect")
	if hijack {
		res.Insights = append(res.Insights, "IRR origin validation is typically checked but can be circumvented")
	}

	target, via, svc := l.findPrependTarget(2)
	if target == 0 {
		res.Notef("no prepend target reachable through a customer chain; attack not launchable")
		return res, nil
	}
	res.Notef("target AS%d prepends x%d on %s via customer AS%d", target, svc.Param, svc.Community, via)

	victim := researchPrefix
	if hijack {
		stub := l.W.StubASes()[2]
		victim = l.W.Origins[stub][0]
		l.UpdateIRR(inj, victim)
	}
	if err := l.Announce(inj, victim, svc.Community); err != nil {
		return nil, err
	}
	// Validate at the target's neighbors: the exported path must contain
	// the target's ASN svc.Param+1 times.
	tr := l.W.Net.Router(target)
	for _, nb := range tr.Neighbors() {
		adv, ok := tr.Advertised(nb, victim)
		if !ok {
			continue
		}
		count := 0
		for _, a := range adv.ASPath.Sequence() {
			if a == uint32(target) {
				count++
			}
		}
		if count == int(svc.Param)+1 {
			res.Success = true
			res.Notef("AS%d exports to AS%d with path [%s] (%d copies)", target, nb, adv.ASPath, count)
			break
		}
	}
	if !res.Success {
		res.Notef("no prepended export observed at the target")
	}
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	return res, nil
}

// RunRouteManipulation executes §7.5: conflicting announce/suppress
// communities at an IXP route server, exploiting the published evaluation
// order to withhold a route from a member (Figure 9).
func (l *Lab) RunRouteManipulation(hijack bool) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Route Manipulation", Hijack: hijack, Difficulty: scenario.Medium}
	res.Insights = append(res.Insights,
		"requires knowing the route server's community evaluation order (published here)")
	if hijack {
		res.Insights = append(res.Insights, "route servers rarely enforce origin validation; IRR checks can be circumvented")
	}
	if len(l.W.RouteServers) == 0 {
		return nil, fmt.Errorf("attack: no route server in lab")
	}
	rs := l.W.RouteServers[0]
	inj := l.Peering

	// Attackee: another member of the same route server.
	var attackee topo.ASN
	for _, m := range rs.Members() {
		if m != inj.ASN {
			attackee = m
			break
		}
	}
	if attackee == 0 {
		return nil, fmt.Errorf("attack: route server has no other members")
	}
	res.Notef("route server AS%d (%s), attackee member AS%d", rs.ASN(), rs.Order(), attackee)

	victim := peeringPrefix
	if hijack {
		// A member hijacking another member's prefix at the RS: modelled
		// from the research injector? PEERING AUP forbids it; emulate by
		// using a prefix we control as the "hijacked" stand-in and note
		// the constraint.
		res.Notef("PEERING AUP forbids true hijacks; using controlled prefix as stand-in (§7.1)")
	}

	// The attackee may also learn the prefix over ordinary transit, so
	// validation inspects the route server's per-peer view — the PEERING
	// facility §7.5 relies on ("a public per-peer view of the accepted
	// prefixes and communities").
	rsAdvertises := func() bool {
		_, ok := rs.Router().Advertised(attackee, victim)
		return ok
	}

	// Step 1: selective announce to the attackee — route appears.
	if err := l.Announce(inj, victim, rs.AnnounceToCommunity(attackee)); err != nil {
		return nil, err
	}
	if !rsAdvertises() {
		res.Notef("route server never redistributed the selectively announced route")
		l.Withdraw(inj, victim)
		return res, nil
	}
	res.Notef("route server advertises %s to attackee AS%d", victim, attackee)

	// Step 2: add the conflicting suppress community.
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	if err := l.Announce(inj, victim, rs.AnnounceToCommunity(attackee), rs.SuppressToCommunity(attackee)); err != nil {
		return nil, err
	}
	if !rsAdvertises() {
		res.Success = true
		res.Notef("conflicting communities: suppress evaluated first, attackee lost the route")
	} else {
		res.Notef("attackee still has the route; evaluation order is announce-first")
	}
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	return res, nil
}

// Table3 runs the full scenario × hijack matrix.
func (l *Lab) Table3() ([]*scenario.Result, error) {
	var out []*scenario.Result
	runs := []func() (*scenario.Result, error){
		func() (*scenario.Result, error) { return l.RunRTBH(false) },
		func() (*scenario.Result, error) { return l.RunRTBH(true) },
		func() (*scenario.Result, error) { return l.RunSteeringLocalPref(false) },
		func() (*scenario.Result, error) { return l.RunSteeringLocalPref(true) },
		func() (*scenario.Result, error) { return l.RunSteeringPrepend(false) },
		func() (*scenario.Result, error) { return l.RunSteeringPrepend(true) },
		func() (*scenario.Result, error) { return l.RunRouteManipulation(false) },
		func() (*scenario.Result, error) { return l.RunRouteManipulation(true) },
	}
	for _, run := range runs {
		r, err := run()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
