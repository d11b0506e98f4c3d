// Package attack reproduces the paper's active experiments (§5–§7): two
// injection platforms (a PEERING-testbed analogue and a small research
// network), benign-community propagation checking (§7.2), the remotely
// triggered blackholing, traffic steering, and route manipulation
// scenarios with and without hijacking (§7.3–§7.5, Table 3), and the
// automated blackhole-community sweep over Atlas vantage points (§7.6).
package attack

import (
	"fmt"
	"net/netip"
	"sort"

	"bgpworms/internal/atlas"
	"bgpworms/internal/bgp"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// Injector is an attack platform: an AS under experimenter control that
// can originate prefixes with arbitrary communities (§7.1).
type Injector struct {
	Name string
	ASN  topo.ASN
	// OwnPrefix is the platform's allocated experiment space.
	OwnPrefix netip.Prefix
	// Upstreams are the transit sessions, nearest first.
	Upstreams []topo.ASN
	// AllowedPrefixes is the IRR state registered for this injector at
	// validating upstreams; "updating the IRR" (§7.3) appends here.
	AllowedPrefixes *policy.PrefixList
	// HijackForbidden mirrors the PEERING AUP: "we only announce prefixes
	// we control" (§7.1).
	HijackForbidden bool
}

// Lab is a complete experimental setup over a generated Internet.
type Lab struct {
	W *gen.Internet
	// Research is a stub with two upstream providers, one of which
	// propagates communities (§7.2).
	Research *Injector
	// Peering is the multi-PoP platform peering widely (route servers
	// plus several transits).
	Peering *Injector
	// Atlas provides the vantage points.
	Atlas *atlas.Platform
}

// Experiment prefix space, disjoint from generated allocations.
var (
	researchPrefix = netx.MustPrefix("198.18.0.0/24")
	peeringPrefix  = netx.MustPrefix("198.18.64.0/24")
	sweepPrefix    = netx.MustPrefix("198.18.128.0/24")
)

// NewLab builds the Internet, attaches both injectors, and draws nVPs
// vantage points from the stub population.
func NewLab(p gen.Params, nVPs int) (*Lab, error) {
	w, err := gen.Build(p)
	if err != nil {
		return nil, err
	}
	return newLabOver(w, nVPs)
}

// NewWarmLab forks a frozen world snapshot instead of building from
// scratch and attaches the identical lab infrastructure. Because the
// snapshot is frozen immediately after gen.Build — before any injector,
// IRR state, or catalog edit exists — the fork runs the exact same
// attachment code a scratch lab runs, so a warm lab is bit-identical to
// a cold one built from the snapshot's parameters. The fork's engine
// runs on workers (gen.Params.Workers' rule), whatever pool the
// snapshot was built for.
func NewWarmLab(s *gen.Snapshot, workers, nVPs int, tap simnet.UpdateTap) (*Lab, error) {
	w, err := s.Fork(tap)
	if err != nil {
		return nil, err
	}
	w.Params.Workers = workers
	w.Net.SetWorkers(workers)
	return newLabOver(w, nVPs)
}

func newLabOver(w *gen.Internet, nVPs int) (*Lab, error) {
	l := &Lab{W: w}
	if err := l.attachResearch(); err != nil {
		return nil, err
	}
	if err := l.attachPeering(); err != nil {
		return nil, err
	}
	l.Atlas = atlas.New(w.Net, w.StubASes(), nVPs, w.Params.Seed+7)
	return l, nil
}

// mutableCatalog returns a lab-private clone of the AS's service
// catalog, installed both in the world's ground-truth map and on the
// (copy-on-write) router. It always clones — on cold labs too — so the
// warm and scratch paths mutate byte-identical state.
func (l *Lab) mutableCatalog(asn topo.ASN) *policy.Catalog {
	cat := l.W.Catalogs[asn].Clone()
	l.W.Catalogs[asn] = cat
	if r := l.W.Net.MutableRouter(asn); r != nil {
		r.Config().Catalog = cat
	}
	return cat
}

// attachResearch wires a stub AS with exactly two upstream mids: one
// community-transparent, one stripping (the §7.2 observation that "only
// one of the upstream providers propagates communities").
func (l *Lab) attachResearch() error {
	asn := l.W.Params.InjectorBase()
	mids := l.W.TransitASes()
	var forwarder, stripper topo.ASN
	for _, m := range mids {
		r := l.W.Net.Router(m)
		if r == nil {
			continue
		}
		mode := r.Config().Propagation
		if forwarder == 0 && mode == policy.PropForwardAll && len(l.W.Graph.Providers(m)) > 0 {
			forwarder = m
			continue
		}
		if stripper == 0 && mode == policy.PropStripAll {
			stripper = m
		}
		if forwarder != 0 && stripper != 0 {
			break
		}
	}
	if forwarder == 0 {
		return fmt.Errorf("attack: no community-forwarding upstream found")
	}
	if stripper == 0 {
		stripper = mids[0]
	}
	inj := router.New(router.Config{ASN: asn, Vendor: router.VendorJuniper, Propagation: policy.PropForwardAll})
	l.W.Net.AddRouter(inj)
	for _, up := range []topo.ASN{forwarder, stripper} {
		if err := l.W.Net.Connect(asn, up, topo.RelProvider); err != nil {
			return err
		}
	}
	// The research network's providers validate customer origins against
	// IRR state (§7.3: "the hijack based attack required updating the
	// IRR"). Enabling validation at an upstream requires IRR entries for
	// all its existing customers too, or their routes would vanish.
	allowed := &policy.PrefixList{}
	allowed.AddRange(researchPrefix, 24, 32)
	for _, up := range []topo.ASN{forwarder, stripper} {
		cfg := l.W.Net.MutableRouter(up).Config()
		if cfg.CustomerPrefixes == nil {
			cfg.CustomerPrefixes = map[topo.ASN]*policy.PrefixList{}
		}
		for _, cust := range l.W.Graph.Customers(up) {
			pl := &policy.PrefixList{}
			for _, p := range l.W.Origins[cust] {
				pl.AddRange(p, p.Bits(), p.Addr().BitLen())
			}
			// Transit customers relay third-party space; give them a
			// permissive entry (IRR data is famously loose there).
			if l.W.Graph.IsTransit(cust) {
				pl.AddRange(netx.MustPrefix("0.0.0.0/0"), 0, 32)
				pl.AddRange(netx.MustPrefix("::/0"), 0, 128)
			}
			cfg.CustomerPrefixes[cust] = pl
		}
		cfg.CustomerPrefixes[asn] = allowed
		cfg.ValidateOrigin = true
	}
	l.Research = &Injector{
		Name: "research", ASN: asn, OwnPrefix: researchPrefix,
		Upstreams:       []topo.ASN{forwarder, stripper},
		AllowedPrefixes: allowed,
	}
	l.ensureRTBHProvider(forwarder)
	return nil
}

// ensureRTBHProvider guarantees a blackhole-offering provider exists two
// hops from the research injector, mirroring the paper's target selection
// ("we select a provider that both supports RTBH and offers a public
// looking glass", §7.3). If no provider of `near` offers the service, the
// nearest one is configured with it and the ground-truth registry is
// updated.
func (l *Lab) ensureRTBHProvider(near topo.ASN) topo.ASN {
	provs := l.W.Graph.Providers(near)
	for _, p := range provs {
		if _, ok := l.W.Catalogs[p].BlackholeCommunity(); ok {
			return p
		}
	}
	if len(provs) == 0 {
		return 0
	}
	p := provs[0]
	bh := bgp.C(uint16(p), 666)
	l.mutableCatalog(p).Add(policy.Service{Community: bh, Kind: policy.SvcBlackhole})
	l.W.Net.MutableRouter(p).Config().BlackholeMinLen = 24
	// Keep the registry's ground truth consistent: the community is now a
	// verified trigger, not a decoy. Filter into a fresh slice — a warm
	// lab's Likely shares its backing array with the frozen snapshot.
	likely := make([]bgp.Community, 0, len(l.W.Registry.Likely))
	for _, c := range l.W.Registry.Likely {
		if c != bh {
			likely = append(likely, c)
		}
	}
	l.W.Registry.Likely = likely
	l.W.Registry.Verified = append(l.W.Registry.Verified, bh)
	sort.Slice(l.W.Registry.Verified, func(i, j int) bool { return l.W.Registry.Verified[i] < l.W.Registry.Verified[j] })
	return p
}

// attachPeering wires the PEERING analogue: sessions to every IXP route
// server plus several transit providers.
func (l *Lab) attachPeering() error {
	asn := l.W.Params.InjectorBase() + 1
	inj := router.New(router.Config{ASN: asn, Vendor: router.VendorJuniper, Propagation: policy.PropForwardAll})
	l.W.Net.AddRouter(inj)
	var ups []topo.ASN
	for _, rs := range l.W.RouteServers {
		if err := rs.AddMember(asn); err != nil {
			return err
		}
		if err := l.W.Net.Connect(asn, rs.ASN(), topo.RelPeer); err != nil {
			return err
		}
		ups = append(ups, rs.ASN())
	}
	mids := l.W.TransitASes()
	span := 4
	if span > len(mids) {
		span = len(mids)
	}
	for i := 0; i < span; i++ {
		up := mids[(i*7)%len(mids)]
		if l.W.Net.Router(asn).NeighborRel(up) != topo.RelNone {
			continue
		}
		if err := l.W.Net.Connect(asn, up, topo.RelProvider); err != nil {
			return err
		}
		ups = append(ups, up)
	}
	allowed := (&policy.PrefixList{}).AddRange(peeringPrefix, 24, 32)
	allowed.AddRange(sweepPrefix, 24, 32) // the §7.6 experiment allocation
	l.Peering = &Injector{
		Name: "peering", ASN: asn, OwnPrefix: peeringPrefix, Upstreams: ups,
		AllowedPrefixes: allowed,
		HijackForbidden: true,
	}
	return nil
}

// Announce originates p from the injector with communities, running to
// convergence. Hijacks (prefixes outside the injector's allocation) fail
// when the platform forbids them.
func (l *Lab) Announce(inj *Injector, p netip.Prefix, comms ...bgp.Community) error {
	if inj.HijackForbidden && !inj.AllowedPrefixes.Matches(p) {
		return fmt.Errorf("attack: %s AUP forbids announcing %s", inj.Name, p)
	}
	_, err := l.W.Net.Announce(inj.ASN, p, comms...)
	return err
}

// Withdraw removes an injector announcement.
func (l *Lab) Withdraw(inj *Injector, p netip.Prefix) error {
	_, err := l.W.Net.Withdraw(inj.ASN, p)
	return err
}

// UpdateIRR registers p as allowed origin space for the research
// injector at its upstreams — circumventing origin validation the way
// §7.3 describes ("even when they do [validate], it is often easy to
// circumvent").
func (l *Lab) UpdateIRR(inj *Injector, p netip.Prefix) {
	inj.AllowedPrefixes.AddRange(p, p.Bits(), 32)
}

// RTBHTargets lists transit ASes offering a blackhole service, sorted by
// AS distance from the injector (looking-glass-equipped providers the
// paper selects targets from). Distance is measured on the converged
// route for probe prefix p.
type RTBHTarget struct {
	AS        topo.ASN
	Community bgp.Community
	HopsAway  int
}

// FindRTBHTargets announces a benign-tagged probe from the injector and
// keeps only providers that received the community on ANY session —
// community propagation to the target is the necessary condition (§5.4).
// Adj-RIB-In is the right place to look: during a real attack the
// blackhole tag raises the route's precedence, so it need not be best
// beforehand.
func (l *Lab) FindRTBHTargets(inj *Injector, probe netip.Prefix) ([]RTBHTarget, error) {
	benign := bgp.C(uint16(inj.ASN), 60000)
	if err := l.Announce(inj, probe, benign); err != nil {
		return nil, err
	}
	defer l.Withdraw(inj, probe)
	var out []RTBHTarget
	for _, asn := range l.W.TransitASes() {
		bh, ok := l.W.Catalogs[asn].BlackholeCommunity()
		if !ok {
			continue
		}
		hops := -1
		l.W.Net.Router(asn).EachAdjIn(func(p netip.Prefix, _ topo.ASN, rt *policy.Route) {
			if p != probe || !rt.Communities.Has(benign) {
				return
			}
			if hops < 0 || rt.ASPath.HopLength() < hops {
				hops = rt.ASPath.HopLength()
			}
		})
		if hops < 0 {
			continue
		}
		out = append(out, RTBHTarget{AS: asn, Community: bh, HopsAway: hops})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].HopsAway != out[j].HopsAway {
			return out[i].HopsAway < out[j].HopsAway
		}
		return out[i].AS < out[j].AS
	})
	return out, nil
}
