package gen

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/collector"
	"bgpworms/internal/feed"
	"bgpworms/internal/ixp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/semantics"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// BaseTime is the nominal observation month (the paper uses April 2018):
// the start of the collectors' logical clock.
var BaseTime = feed.LogicalTime(0)

// Internet is a fully built synthetic Internet with measurement
// infrastructure attached.
type Internet struct {
	Params       Params
	Graph        *topo.Graph
	Net          *simnet.Network
	Collectors   []*collector.Collector
	RouteServers []*ixp.RouteServer

	// Origins maps each originating AS to its allocated prefixes.
	Origins map[topo.ASN][]netip.Prefix
	// OriginTags records the communities each origin attaches per prefix
	// (ground truth for validating the pipeline).
	OriginTags map[netip.Prefix]bgp.CommunitySet

	// Registry is the ground-truth blackhole community list (§7.6).
	Registry *Registry

	// Catalogs keeps each AS's service catalog for ground-truth checks.
	Catalogs map[topo.ASN]*policy.Catalog

	// tagTruth records every informational community the network layer
	// attaches (ingress tags, location tags, bundles) — the part of the
	// dictionary ground truth not recoverable from Catalogs/OriginTags.
	tagTruth semantics.Truth

	rng *rand.Rand
	// rngSrc is the counted source behind rng: it tracks how many raw
	// draws construction consumed so a warm fork can replay the stream
	// to the identical position (see Snapshot.Fork).
	rngSrc *countingSource
}

// communityValuePool mirrors the paper's observation (Fig. 5c) that
// popular community values are "convenient" numbers: local-pref-like
// values, round numbers, and 666. Draws are geometric over this pool so a
// few values dominate with a long tail.
// (666 is deliberately absent: informational reuse of the blackhole value
// is rare in practice, and including it would pollute the Fig. 5a
// blackholing ECDF with ordinary long-traveling tags.)
var communityValuePool = []uint16{
	100, 1000, 200, 1, 2, 10, 0, 3000, 2000, 500,
	20, 300, 65000, 9498, 12, 5, 50, 150, 250,
	400, 30, 110, 120, 80, 70, 900, 210, 333, 42,
}

func (w *Internet) drawValue(rng *rand.Rand) uint16 {
	idx := int(rng.ExpFloat64() * 3.5)
	if idx >= len(communityValuePool) {
		idx = rng.Intn(len(communityValuePool))
	}
	return communityValuePool[idx]
}

// Build constructs the topology, assigns policies, attaches IXPs and
// collectors, and announces every origin prefix to convergence.
func Build(p Params) (*Internet, error) {
	defer buildSecs.ObserveSince(time.Now())
	w, ops, err := plan(p)
	if err != nil {
		return nil, err
	}
	if _, err := w.Net.Apply(ops...); err != nil {
		return nil, err
	}
	return w, nil
}

// plan draws everything Build makes without converging anything: the
// topology, the routers, IXPs and collectors wired into a routeless
// network, the registry, and the origin announcements Build applies,
// which it returns. Nothing it draws depends on network state.
func plan(p Params) (*Internet, []simnet.Op, error) {
	switch p.Engine {
	case "", "delta":
	default:
		return nil, nil, fmt.Errorf("gen: unknown engine %q (want \"delta\" or empty)", p.Engine)
	}
	if ASNStubBase+topo.ASN(p.Stubs) > ASNIXPBase {
		// Dynamic layout: route servers move to the 16-bit window, which
		// must fit between the mid tier and the stub base.
		if ASNMidBase+topo.ASN(p.Mid) > ASNIXPBase16 {
			return nil, nil, fmt.Errorf("gen: %d mid ASes collide with the 16-bit route-server window at %d", p.Mid, ASNIXPBase16)
		}
		if ASNIXPBase16+topo.ASN(p.IXPs) > ASNStubBase {
			return nil, nil, fmt.Errorf("gen: %d route servers overrun the 16-bit window into the stub range at %d", p.IXPs, ASNStubBase)
		}
	}
	src := newCountingSource(p.Seed)
	w := &Internet{
		Params:     p,
		Origins:    make(map[topo.ASN][]netip.Prefix),
		OriginTags: make(map[netip.Prefix]bgp.CommunitySet),
		Catalogs:   make(map[topo.ASN]*policy.Catalog),
		tagTruth:   make(semantics.Truth),
		rng:        rand.New(src),
		rngSrc:     src,
	}
	w.buildGraph()
	w.buildNetwork()
	if p.Tap != nil {
		w.Net.Tap(p.Tap)
	}
	if err := w.attachIXPs(); err != nil {
		return nil, nil, err
	}
	if err := w.attachCollectors(); err != nil {
		return nil, nil, err
	}
	w.buildRegistry()
	return w, w.originOps(), nil
}

// tier1ASNs / midASNs / stubASNs enumerate generated ranges.
func (w *Internet) tier1ASNs() []topo.ASN {
	out := make([]topo.ASN, w.Params.Tier1)
	for i := range out {
		out[i] = ASNTier1Base + topo.ASN(i)
	}
	return out
}

func (w *Internet) midASNs() []topo.ASN {
	out := make([]topo.ASN, w.Params.Mid)
	for i := range out {
		out[i] = ASNMidBase + topo.ASN(i)
	}
	return out
}

func (w *Internet) stubASNs() []topo.ASN {
	out := make([]topo.ASN, w.Params.Stubs)
	for i := range out {
		out[i] = ASNStubBase + topo.ASN(i)
	}
	return out
}

func (w *Internet) buildGraph() {
	g := topo.NewGraph()
	t1 := w.tier1ASNs()
	for i, a := range t1 {
		for _, b := range t1[i+1:] {
			g.AddPeering(a, b)
		}
	}
	// Mid-tier: preferential attachment to tier-1 and earlier mids.
	mids := w.midASNs()
	for i, m := range mids {
		nProv := 1 + w.rng.Intn(2)
		cands := append(append([]topo.ASN(nil), t1...), mids[:i]...)
		for k := 0; k < nProv && len(cands) > 0; k++ {
			// Bias toward the front (bigger networks).
			idx := int(float64(len(cands)) * w.rng.Float64() * w.rng.Float64())
			g.AddCustomerProvider(m, cands[idx])
			cands = append(cands[:idx], cands[idx+1:]...)
		}
		// Occasional lateral peering.
		if i > 0 && w.rng.Float64() < 0.25 {
			peer := mids[w.rng.Intn(i)]
			if !g.HasLink(m, peer) {
				g.AddPeering(m, peer)
			}
		}
	}
	// Stubs: multi-home into the mid tier.
	for _, s := range w.stubASNs() {
		nProv := 1 + w.rng.Intn(2)
		seen := map[topo.ASN]bool{}
		for k := 0; k < nProv; k++ {
			idx := int(float64(len(mids)) * w.rng.Float64() * w.rng.Float64())
			prov := mids[idx]
			if seen[prov] {
				continue
			}
			seen[prov] = true
			g.AddCustomerProvider(s, prov)
		}
	}
	w.Graph = g
}

// asRNG derives a per-AS deterministic RNG so policy assignment does not
// depend on iteration order.
func (w *Internet) asRNG(asn topo.ASN) *rand.Rand {
	return rand.New(rand.NewSource(w.Params.Seed*1e9 + int64(asn)))
}

func (w *Internet) buildNetwork() {
	p := w.Params
	w.Net = simnet.New(w.Graph, func(asn topo.ASN) router.Config {
		rng := w.asRNG(asn)
		cfg := router.Config{ASN: asn}

		// Vendor and send-community (§6.1): IOS must opt in, and usually
		// does because communities implement basic services.
		if rng.Float64() < 0.55 {
			cfg.Vendor = router.VendorCisco
			cfg.SendCommunity = make(map[topo.ASN]bool)
			for _, nb := range w.Graph.Neighbors(asn) {
				if rng.Float64() < 0.92 {
					cfg.SendCommunity[nb] = true
				}
			}
		} else {
			cfg.Vendor = router.VendorJuniper
		}

		// Propagation mode mix (§4.4's "nearly everyone has a different
		// view").
		total := p.PropForwardAll + p.PropStripAll + p.PropActStripOwn + p.PropStripForeign
		x := rng.Float64() * total
		switch {
		case x < p.PropForwardAll:
			cfg.Propagation = policy.PropForwardAll
		case x < p.PropForwardAll+p.PropStripAll:
			cfg.Propagation = policy.PropStripAll
		case x < p.PropForwardAll+p.PropStripAll+p.PropActStripOwn:
			cfg.Propagation = policy.PropActStripOwn
		default:
			cfg.Propagation = policy.PropStripForeign
		}

		isTransit := w.Graph.IsTransit(asn)
		cat := policy.NewCatalog(asn)
		if isTransit {
			if rng.Float64() < p.PBlackholeService {
				val := uint16(666)
				if rng.Float64() < 0.2 {
					val = 999 // some providers use non-standard labels
				}
				cat.Add(policy.Service{Community: bgp.C(uint16(asn), val), Kind: policy.SvcBlackhole})
				cfg.BlackholeMinLen = 24
				// RFC 7999 recommends NO_EXPORT on blackhole routes; many
				// deployments follow it, which is why blackholing
				// communities travel shorter distances (Fig. 5a).
				cfg.BlackholeAddNoExport = rng.Float64() < 0.55
			}
			if rng.Float64() < p.PPrependService {
				for n := 1; n <= 3; n++ {
					cat.Add(policy.Service{
						Community: bgp.C(uint16(asn), uint16(100+n)), Kind: policy.SvcPrepend,
						Param: uint32(n), CustomerOnly: true,
					})
				}
			}
			if rng.Float64() < p.PLocalPrefService {
				cat.Add(policy.Service{Community: bgp.C(uint16(asn), 70), Kind: policy.SvcLocalPref, Param: 70, CustomerOnly: true})
				cat.Add(policy.Service{Community: bgp.C(uint16(asn), 130), Kind: policy.SvcLocalPref, Param: 130, CustomerOnly: true})
			}
			// Per-session ingress tags, in the order the router adds them.
			tags := map[topo.ASN][]bgp.Community{}
			if rng.Float64() < p.PLocationTagging {
				for _, nb := range w.Graph.Neighbors(asn) {
					loc := bgp.C(uint16(asn), uint16(200+int(nb)%20))
					tags[nb] = append(tags[nb], loc)
					w.tagTruth.Add(loc, semantics.ClassInformational)
				}
			}
			// Prefix-length hygiene: many transits enforce /24 max —
			// which is what keeps /32 blackhole trails short (§7.3:
			// "many providers enforce a limit on the maximum prefix mask
			// length of announcements they will accept").
			if rng.Float64() < 0.6 {
				cfg.MaxPrefixLen = 24
			}
			// Most sizable transits tag ingress routes with their own
			// informational communities (origin/type tagging, the dominant
			// reason >75% of updates carry communities in §4.2).
			if rng.Float64() < p.PIngressTags {
				tag := bgp.C(uint16(asn), w.drawValue(rng))
				extra := bgp.C(uint16(asn), w.drawValue(rng))
				w.tagTruth.Add(tag, semantics.ClassInformational)
				w.tagTruth.Add(extra, semantics.ClassInformational)
				for _, nb := range w.Graph.Neighbors(asn) {
					tags[nb] = append(tags[nb], tag)
					if rng.Float64() < 0.4 {
						tags[nb] = append(tags[nb], extra)
					}
				}
			}
			// Community bundling: tag customer ingress with a community
			// referencing a neighbor (off-path source, §4.3).
			if rng.Float64() < p.PBundling {
				nbs := w.Graph.Neighbors(asn)
				if len(nbs) > 0 {
					ref := nbs[rng.Intn(len(nbs))]
					if ref <= 0xFFFF {
						bundle := bgp.C(uint16(ref), w.drawValue(rng))
						// Bundles name a neighbor AS the bundler, not the
						// named AS, attaches — still legitimate recurring
						// usage under that ASN, so truth keeps them.
						w.tagTruth.Add(bundle, semantics.ClassInformational)
						for _, c := range w.Graph.Customers(asn) {
							tags[c] = append(tags[c], bundle)
						}
					}
				}
			}
			if len(tags) > 0 {
				cfg.IngressTags = tags
			}
		}
		cfg.Catalog = cat
		w.Catalogs[asn] = cat
		return cfg
	})
	w.Net.SetWorkers(p.Workers)
}

func (w *Internet) attachIXPs() error {
	members := append(w.midASNs(), w.stubASNs()...)
	for i := 0; i < w.Params.IXPs; i++ {
		rs := ixp.NewRouteServer(w.Params.IXPBase()+topo.ASN(i), ixp.SuppressFirst)
		span := w.Params.IXPMemberSpan
		start := (i * span * 2) % max(1, len(members)-span)
		for k := 0; k < span && start+k < len(members); k++ {
			if err := rs.AddMember(members[start+k]); err != nil {
				return err
			}
		}
		if err := rs.Attach(w.Net); err != nil {
			return err
		}
		w.RouteServers = append(w.RouteServers, rs)
	}
	return nil
}

func (w *Internet) attachCollectors() error {
	p := w.Params
	asn := p.CollectorBase()
	// Peer pool: transit ASes carry the interesting views.
	pool := append(w.tier1ASNs(), w.midASNs()...)
	for _, platform := range collector.Platforms {
		count := p.CollectorsPerPlatform[string(platform)]
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("%s-%02d", platform, i)
			c := collector.New(platform, name, asn)
			asn++
			if platform == collector.PlatformPCH {
				// PCH peers with IXP route servers (§4.1) plus a few mids.
				for _, rs := range w.RouteServers {
					c.AddPeer(collector.Peer{AS: rs.ASN(), Feed: collector.CustomerFeed})
				}
				for k := 0; k < p.PeersPerCollector/2; k++ {
					c.AddPeer(collector.Peer{AS: pool[w.rng.Intn(len(pool))], Feed: collector.CustomerFeed})
				}
			} else {
				for k := 0; k < p.PeersPerCollector; k++ {
					peer := pool[w.rng.Intn(len(pool))]
					feed := collector.FullFeed
					switch r := w.rng.Float64(); {
					case r < 0.20:
						feed = collector.PartialFeed
					case r < 0.30:
						feed = collector.CustomerFeed
					}
					c.AddPeer(collector.Peer{AS: peer, Feed: feed})
				}
			}
			if err := c.Attach(w.Net); err != nil {
				return err
			}
			w.Collectors = append(w.Collectors, c)
		}
	}
	return nil
}

// prefixFor allocates the k-th /24 for an origin index, carving
// disjoint space per origin.
func prefixFor(originIdx, k int) netip.Prefix {
	n := originIdx*4 + k // up to 4 prefixes per origin
	return netx.PrefixV4(byte(20+n/65536), byte((n/256)%256), byte(n%256), 0, 24)
}

// v6PrefixFor allocates a /48 under 2001:db8::/32.
func v6PrefixFor(originIdx int) netip.Prefix {
	return netx.MustPrefix(fmt.Sprintf("2001:db8:%x::/48", originIdx+1))
}

// originOps draws every sampled stub's prefixes and tags and returns
// their announcements, which Build converges with one Apply.
func (w *Internet) originOps() []simnet.Op {
	stubs := w.stubASNs()
	step := w.Params.OriginSampleEvery
	if step < 1 {
		step = 1
	}
	var ops []simnet.Op
	for i := 0; i < len(stubs); i += step {
		s := stubs[i]
		rng := w.asRNG(s)
		nPfx := 1 + rng.Intn(w.Params.MaxPrefixesPerOrigin)
		for k := 0; k < nPfx; k++ {
			pfx := prefixFor(i, k)
			tags := w.originTagSet(s, rng)
			w.Origins[s] = append(w.Origins[s], pfx)
			w.OriginTags[pfx] = tags
			ops = append(ops, simnet.Op{AS: s, Prefix: pfx, Communities: tags})
		}
		if rng.Float64() < w.Params.V6Share {
			pfx := v6PrefixFor(i)
			w.Origins[s] = append(w.Origins[s], pfx)
			ops = append(ops, simnet.Op{AS: s, Prefix: pfx})
		}
	}
	return ops
}

// originTagSet draws the communities an origin attaches at announcement
// and folds them into the ground-truth dictionary (churn retagging
// replaces OriginTags entries, but a value once legitimately announced
// stays truth).
func (w *Internet) originTagSet(s topo.ASN, rng *rand.Rand) bgp.CommunitySet {
	tags := w.drawOriginTagSet(s, rng)
	for _, c := range tags {
		w.tagTruth.Add(c, semantics.ClassInformational)
	}
	return tags
}

func (w *Internet) drawOriginTagSet(s topo.ASN, rng *rand.Rand) bgp.CommunitySet {
	var tags bgp.CommunitySet
	// Classic communities only address 16-bit ASNs; origins in the
	// 4-byte-style tail of the internet preset cannot name themselves
	// (Table 2's unaddressable-AS discussion) and announce untagged or
	// with private/provider tags only.
	if s <= 0xFFFF && rng.Float64() < w.Params.POriginTags {
		n := 1 + rng.Intn(3)
		for t := 0; t < n; t++ {
			tags = tags.Add(bgp.C(uint16(s), w.drawValue(rng)))
		}
	}
	if rng.Float64() < w.Params.PPrivateTag {
		tags = tags.Add(bgp.C(uint16(64512+rng.Intn(1023)), w.drawValue(rng)))
	}
	// Legitimate remote-service use: sometimes request prepending or a
	// lower pref from a (transitive) provider.
	if rng.Float64() < 0.15 {
		provs := w.Graph.Providers(s)
		if len(provs) > 0 {
			prov := provs[rng.Intn(len(provs))]
			if svc, ok := w.Catalogs[prov].Lookup(bgp.C(uint16(prov), 101)); ok {
				tags = tags.Add(svc.Community)
			} else if svc, ok := w.Catalogs[prov].Lookup(bgp.C(uint16(prov), 70)); ok {
				tags = tags.Add(svc.Community)
			}
		}
	}
	return tags
}

// AllPrefixes lists every originated prefix in canonical order.
func (w *Internet) AllPrefixes() []netip.Prefix {
	var out []netip.Prefix
	for _, ps := range w.Origins {
		out = append(out, ps...)
	}
	sort.Slice(out, func(i, j int) bool { return netx.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

// OriginOf returns the origin AS for a generated prefix.
func (w *Internet) OriginOf(p netip.Prefix) (topo.ASN, bool) {
	for asn, ps := range w.Origins {
		for _, q := range ps {
			if q == p {
				return asn, true
			}
		}
	}
	return 0, false
}
