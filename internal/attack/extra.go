package attack

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"bgpworms/internal/atlas"
	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/scenario"
	"bgpworms/internal/topo"
)

// This file holds the scenarios that extend the paper's Table 3: the
// propagation-distance probe (§4.4 measured passively, here active), the
// blackhole-community squat (§7.6's decoy population), selective prepend
// steering (§7.4 taken per-flow), and community-amplified route leaks
// (the §5 taxonomy crossed with the classic leak).

// CommunitySet resolves a named ground-truth registry slice: "verified",
// "likely", or "all" (§7.6's candidate lists).
func (l *Lab) CommunitySet(name string) ([]bgp.Community, error) {
	switch name {
	case "", "verified":
		return append([]bgp.Community(nil), l.W.Registry.Verified...), nil
	case "likely":
		return append([]bgp.Community(nil), l.W.Registry.Likely...), nil
	case "all":
		return l.W.Registry.All(), nil
	default:
		return nil, fmt.Errorf("attack: unknown community set %q (want %s)", name, strings.Join(scenario.CommunitySets, "|"))
	}
}

// RunPropagationDistance actively measures how far a benign community
// travels: announce a tagged probe from the research network and record,
// per transit AS holding the probe, whether the tag survived on the best
// path and at what AS-hop distance — the active analogue of the Figure
// 5a/5b traveled-distance ECDFs.
func (l *Lab) RunPropagationDistance() (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Propagation Distance", Difficulty: scenario.Easy}
	res.Insights = append(res.Insights,
		"communities cross ASes that have no use for them, so a trigger can arrive from far away",
		"strip-all and strip-foreign transits bound the attack radius the same way they bound measurement visibility")
	inj := l.Research
	probe := inj.OwnPrefix
	// A low-order value not used by any generated policy (§7.2 picks
	// "low-order bits that we have not observed in the wild").
	benign := bgp.C(uint16(inj.ASN), 48)
	if err := l.Announce(inj, probe, benign); err != nil {
		return nil, err
	}
	defer l.Withdraw(inj, probe)

	carried := map[int]int{}
	sawRoute, strippedAt, maxCarry := 0, 0, 0
	for _, asn := range l.W.TransitASes() {
		rt, ok := l.W.Net.Router(asn).BestRoute(probe)
		if !ok {
			continue
		}
		sawRoute++
		hops := rt.ASPath.HopLength()
		if rt.Communities.Has(benign) {
			carried[hops]++
			if hops > maxCarry {
				maxCarry = hops
			}
		} else {
			strippedAt++
		}
	}
	res.Notef("probe visible at %d transit ASes; tag stripped on %d of their best paths", sawRoute, strippedAt)
	dists := make([]int, 0, len(carried))
	for d := range carried {
		dists = append(dists, d)
	}
	sort.Ints(dists)
	for _, d := range dists {
		res.Notef("distance %d AS hops: tag intact on %d best paths", d, carried[d])
	}
	// Success: the community crossed at least one intermediate AS, the
	// necessary condition for every remote-trigger attack (§5.4).
	res.Success = maxCarry >= 2
	return res, nil
}

// RunBlackholeSquat announces the attack platform's own prefix tagged
// with a decoy blackhole community — value 666 on an AS that offers no
// RTBH service (§7.6's "likely" population). The squat must be inert:
// no vantage point loses reachability and the decoy owner keeps an
// ordinary best route, showing value-pattern inference over-counts and
// only active verification separates triggers from decoys.
func (l *Lab) RunBlackholeSquat() (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Blackhole Squatting", Difficulty: scenario.Easy}
	res.Insights = append(res.Insights,
		"blackhole-looking community values on non-offering ASes are inert",
		"inference from value patterns over-counts; the §7.6 active sweep separates triggers from decoys")
	if len(l.W.Registry.Likely) == 0 {
		res.Notef("no decoy blackhole community in this topology; squat not demonstrable")
		return res, nil
	}
	decoy := l.W.Registry.Likely[0]
	inj := l.Peering
	probe := inj.OwnPrefix
	dst := netx.NthAddr(probe, 33)

	if err := l.Announce(inj, probe); err != nil {
		return nil, err
	}
	before := l.Atlas.PingAll(dst)
	if err := l.Withdraw(inj, probe); err != nil {
		return nil, err
	}
	if err := l.Announce(inj, probe, decoy); err != nil {
		return nil, err
	}
	after := l.Atlas.PingAll(dst)
	lost := atlas.LostVPs(before, after)
	res.Notef("squatted %s (AS%d documents no RTBH): %d/%d VPs lost",
		decoy, decoy.ASN(), len(lost), len(l.Atlas.VPs()))

	inert := len(lost) == 0
	if r := l.W.Net.Router(topo.ASN(decoy.ASN())); r != nil {
		if rt, ok := r.BestRoute(probe); ok {
			res.Notef("decoy owner LG: %s", rt)
			if rt.Blackhole {
				inert = false
			}
		}
	}
	res.Success = inert
	if err := l.Withdraw(inj, probe); err != nil {
		return nil, err
	}
	return res, nil
}

// findPrependTarget locates a provider of one of the research upstreams
// that offers a prepend service of at least minPrepend copies reachable
// through a customer chain — the §7.4 gate shared by both prepend
// steering variants.
func (l *Lab) findPrependTarget(minPrepend uint32) (target, via topo.ASN, svc policy.Service) {
	for _, up := range l.Research.Upstreams {
		for _, prov := range l.W.Graph.Providers(up) {
			for _, s := range l.W.Catalogs[prov].Services {
				if s.Kind == policy.SvcPrepend && s.Param >= minPrepend {
					return prov, up, s
				}
			}
		}
	}
	return 0, 0, policy.Service{}
}

// ensurePrependTarget returns a customer-chain prepend target of at
// least minPrepend copies, configuring one at the forwarding upstream's
// first provider when the generated topology offers none — the same
// target-provisioning role ensureRTBHProvider plays for §7.3.
func (l *Lab) ensurePrependTarget(minPrepend uint32) (target, via topo.ASN, svc policy.Service) {
	if t, v, s := l.findPrependTarget(minPrepend); t != 0 {
		return t, v, s
	}
	fwd := l.Research.Upstreams[0]
	provs := l.W.Graph.Providers(fwd)
	if len(provs) == 0 {
		return 0, 0, policy.Service{}
	}
	p := provs[0]
	val := uint16(100 + minPrepend)
	for {
		if _, taken := l.W.Catalogs[p].Lookup(bgp.C(uint16(p), val)); !taken {
			break
		}
		val++
	}
	svc = policy.Service{
		Community: bgp.C(uint16(p), val), Kind: policy.SvcPrepend,
		Param: minPrepend, CustomerOnly: true,
	}
	l.mutableCatalog(p).Add(svc)
	return p, fwd, svc
}

// RunSelectivePrepend is §7.4's prepending attack validated per-flow:
// the tag must move traffic off the target AS only for networks that
// were routing through it, while every bystander keeps its path and
// nobody loses reachability. The Table 3 steering row shows the path
// lengthens at the target; this scenario shows the steering is surgical.
func (l *Lab) RunSelectivePrepend(minPrepend int) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Traffic Steering (selective prepend)", Difficulty: scenario.Hard}
	res.Insights = append(res.Insights,
		"one community moves only the flows crossing the target AS; the rest of the Internet keeps its paths",
		"providers only act on communities set by their customers")
	if minPrepend < 1 {
		minPrepend = 1
	}
	target, via, svc := l.ensurePrependTarget(uint32(minPrepend))
	if target == 0 {
		res.Notef("no prepend target (>=%d copies) reachable through a customer chain; attack not launchable", minPrepend)
		return res, nil
	}
	res.Notef("target AS%d prepends x%d on %s via customer AS%d", target, svc.Param, svc.Community, via)

	inj := l.Research
	victim := researchPrefix
	if err := l.Announce(inj, victim); err != nil {
		return nil, err
	}
	viaTarget := map[topo.ASN]bool{}
	reachBefore := 0
	for _, t := range l.W.TransitASes() {
		if rt, ok := l.W.Net.Router(t).BestRoute(victim); ok {
			reachBefore++
			if rt.ASPath.Contains(uint32(target)) {
				viaTarget[t] = true
			}
		}
	}
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	if err := l.Announce(inj, victim, svc.Community); err != nil {
		return nil, err
	}
	moved, bystandersKept, dragged, reachAfter := 0, 0, 0, 0
	for _, t := range l.W.TransitASes() {
		rt, ok := l.W.Net.Router(t).BestRoute(victim)
		if !ok {
			continue
		}
		reachAfter++
		onTarget := rt.ASPath.Contains(uint32(target))
		switch {
		case viaTarget[t] && !onTarget:
			moved++
		case !viaTarget[t] && !onTarget:
			bystandersKept++
		case !viaTarget[t] && onTarget:
			dragged++
		}
	}
	res.Notef("before: %d/%d transits routed via AS%d; after tagging %d moved off, %d bystanders stayed target-free, %d dragged on",
		len(viaTarget), reachBefore, target, moved, bystandersKept, dragged)
	// Surgical means: somebody moved off the target, nobody was dragged
	// onto it, and nobody lost reachability.
	res.Success = moved >= 1 && dragged == 0 && reachAfter == reachBefore
	if moved == 0 {
		res.Notef("no transit left AS%d: x%d prepending found no shorter alternative path", target, svc.Param)
	}
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	return res, nil
}

// findLeakAmplifier announces the leak tagged with a benign marker and
// searches (in sorted transit order) for an AS that received the marker
// in its Adj-RIB-In but still prefers the legitimate route. That AS is
// where a raise community changes the outcome; an AS already preferring
// the leak (every first-hop provider does, customer preference sees to
// that) amplifies nothing. Mirrors FindRTBHTargets' probe-then-select
// shape.
func (l *Lab) findLeakAmplifier(inj *Injector, victim netip.Prefix) (topo.ASN, error) {
	marker := bgp.C(uint16(inj.ASN), 61)
	if err := l.Announce(inj, victim, marker); err != nil {
		return 0, err
	}
	defer l.Withdraw(inj, victim)
	for _, asn := range l.W.TransitASes() {
		r := l.W.Net.Router(asn)
		sawMarker := false
		r.EachAdjIn(func(p netip.Prefix, from topo.ASN, rt *policy.Route) {
			if p == victim && rt.Communities.Has(marker) {
				sawMarker = true
			}
		})
		if !sawMarker {
			continue
		}
		if rt, ok := r.BestRoute(victim); ok && !rt.ASPath.Contains(uint32(inj.ASN)) {
			return asn, nil
		}
	}
	return 0, nil
}

// armLeakAmplifier gives amp a local-pref-raise service with Param above
// LocalPrefCustomer and no customer-only gate — the misconfiguration
// that makes this attack work. §7.4's steering attacks are hard exactly
// because providers gate action communities to customer sessions; an AS
// whose raise community fires on any session amplifies leaks arriving
// from anywhere. An existing ungated raise service is reused.
func (l *Lab) armLeakAmplifier(amp topo.ASN) (bgp.Community, uint32) {
	for _, s := range l.W.Catalogs[amp].Services {
		if s.Kind == policy.SvcLocalPref && s.Param > router.LocalPrefCustomer && !s.CustomerOnly {
			return s.Community, s.Param
		}
	}
	pref := router.LocalPrefCustomer + 20
	val := uint16(pref)
	for {
		if _, taken := l.W.Catalogs[amp].Lookup(bgp.C(uint16(amp), val)); !taken {
			break
		}
		val++
	}
	raise := bgp.C(uint16(amp), val)
	l.mutableCatalog(amp).Add(policy.Service{
		Community: raise, Kind: policy.SvcLocalPref, Param: pref,
	})
	return raise, pref
}

// RunRouteLeakAmplification models a community-amplified route leak: the
// research network originates a remote stub's prefix (the leak, IRR
// pre-updated as §7.3 showed is feasible), measures how many transit
// ASes prefer the leaked path, then re-announces tagged with the
// amplifier's local-pref-raise community. Plain, the leak loses the
// decision process at the amplifier; amplified, the raise community
// makes it best there and across its cone.
func (l *Lab) RunRouteLeakAmplification() (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "Route Leak Amplification", Hijack: true, Difficulty: scenario.Medium}
	res.Insights = append(res.Insights,
		"a leaked route on its own loses the decision process where legitimate paths are shorter or better-preferred",
		"a raise community without §7.4's customer-session gate flips the amplifier and drags its whole cone onto the leak")
	inj := l.Research

	stub := l.pickRemoteVictim()
	if stub == 0 {
		res.Notef("no IPv4-originating stub to leak; attack not launchable")
		return res, nil
	}
	victim := l.W.Origins[stub][0]
	l.UpdateIRR(inj, victim)
	res.Notef("leaking %s (origin AS%d) from AS%d", victim, stub, inj.ASN)

	amp, err := l.findLeakAmplifier(inj, victim)
	if err != nil {
		return nil, err
	}
	if amp == 0 {
		res.Notef("every community-reachable transit already prefers the leak; nothing left to amplify")
		return res, nil
	}
	raise, pref := l.armLeakAmplifier(amp)
	res.Notef("amplifier AS%d raises local-pref to %d on %s (ungated: fires on any session)", amp, pref, raise)

	if err := l.Announce(inj, victim); err != nil {
		return nil, err
	}
	radiusPlain := l.countTransitsVia(inj.ASN, victim)
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	if err := l.Announce(inj, victim, raise); err != nil {
		return nil, err
	}
	radiusAmped := l.countTransitsVia(inj.ASN, victim)
	ampFlipped := false
	if rt, ok := l.W.Net.Router(amp).BestRoute(victim); ok {
		ampFlipped = rt.ASPath.Contains(uint32(inj.ASN))
		res.Notef("amplifier LG: %s", rt)
	}
	res.Notef("leak radius: %d transit ASes preferred the plain leak, %d once amplified (of %d)",
		radiusPlain, radiusAmped, len(l.W.TransitASes()))
	res.Success = ampFlipped && radiusAmped > radiusPlain
	if err := l.Withdraw(inj, victim); err != nil {
		return nil, err
	}
	return res, nil
}

// countTransitsVia counts transit ASes whose best route for p crosses
// asn — the leak's blast radius.
func (l *Lab) countTransitsVia(asn topo.ASN, p netip.Prefix) int {
	n := 0
	for _, t := range l.W.TransitASes() {
		if rt, ok := l.W.Net.Router(t).BestRoute(p); ok && rt.ASPath.Contains(uint32(asn)) {
			n++
		}
	}
	return n
}
