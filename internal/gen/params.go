// Package gen builds synthetic Internets: a hierarchical AS topology
// (tier-1 clique, transit tiers, stubs, IXPs with route servers), per-AS
// community policies drawn from the §2 taxonomy, prefix allocations,
// route-collector deployments mirroring the four platforms of Table 1, a
// month of routing churn, and the 2010→2018 growth model behind Figure 3.
//
// This package substitutes for the paper's proprietary vantage: real MRT
// archives from RIS/RouteViews/Isolario/PCH. Everything downstream (the
// measurement pipeline in internal/core) consumes only the MRT byte
// streams and RIB views the collectors emit, never generator internals.
package gen

import (
	"fmt"

	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// Params sizes and seeds a synthetic Internet. The zero value is not
// useful; start from a preset.
type Params struct {
	Seed int64

	// Workers sizes the simulation engine's worker pool, the rule every
	// pool in the repo follows: 0 or negative means one worker per
	// available CPU. It never changes results: delivery counts,
	// collector archives and RIBs are byte-identical for every value
	// given the same Seed.
	Workers int

	// Engine exists for bench/, which passes "delta", and goes when a
	// benchmark PR drops the argument: "" and "delta" both mean the one
	// propagation engine, and any other value is an error.
	Engine string

	// Topology shape.
	Tier1 int // clique of transit-free ASes
	Mid   int // regional transit ASes
	Stubs int // edge ASes

	// MaxPrefixesPerOrigin bounds how many prefixes a stub originates
	// (drawn uniformly from 1..Max).
	MaxPrefixesPerOrigin int

	// OriginSampleEvery originates prefixes from every k-th stub only
	// (0 or 1 = every stub). The paper-scale presets use it to keep the
	// announced prefix universe a measured sample — the way collectors
	// see a slice of the real table — while the topology itself stays at
	// full AS count. Non-originating stubs still shape the graph (degree
	// skew, path diversity) and forward routes.
	OriginSampleEvery int

	// IXPs is the number of exchange points with route servers; members
	// are drawn from mid-tier and stub ASes.
	IXPs          int
	IXPMemberSpan int // members per IXP

	// ChurnEvents is how many withdraw/re-announce events the "month"
	// contains; each produces update trains at every collector.
	ChurnEvents int

	// RTBHEvents is how many blackhole episodes (announce /32 with a
	// provider's blackhole community, later withdraw) occur.
	RTBHEvents int

	// CollectorsPerPlatform and PeersPerCollector scale the measurement
	// infrastructure (Table 1's 194 collectors / 5158 peers, scaled down).
	CollectorsPerPlatform map[string]int
	PeersPerCollector     int

	// V6Share is the fraction of origins that also announce an IPv6
	// prefix (the paper's dataset is 8% IPv6).
	V6Share float64

	// Policy mix: probability weights for community propagation modes
	// (forward-all, strip-all, act-strip-own, strip-foreign). They need
	// not sum to 1; they are normalized.
	PropForwardAll   float64
	PropStripAll     float64
	PropActStripOwn  float64
	PropStripForeign float64

	// Service adoption probabilities for transit ASes.
	PBlackholeService float64
	PPrependService   float64
	PLocalPrefService float64
	PLocationTagging  float64

	// POriginTags is the probability a stub tags its announcements with
	// informational communities of its own.
	POriginTags float64
	// PIngressTags is the probability a transit AS tags routes with its
	// own informational communities at ingress.
	PIngressTags float64
	// PBundling is the probability a transit AS adds a community
	// referencing a neighbor AS (community bundling, an off-path source
	// per §4.3).
	PBundling float64
	// PPrivateTag is the probability an origin adds a private-ASN
	// community (the ~400 private ASes of Table 2).
	PPrivateTag float64

	// Tap, when non-nil, is registered on the network before the first
	// origin announcement, so it observes the complete update stream:
	// world construction, churn, and everything a scenario does after.
	// The streaming detection engine (internal/watch) attaches here.
	// Function-valued: excluded from JSON; sweeps leave it nil.
	Tap simnet.UpdateTap `json:"-"`
}

// Preset returns the named scale preset ("tiny", "small", "medium",
// "large", "internet") — the single source of truth for the -scale
// flags and the scenario sweep's scale dimension.
func Preset(name string) (Params, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "small":
		return Small(), nil
	case "medium":
		return Medium(), nil
	case "large":
		return Large(), nil
	case "internet":
		return InternetScale(), nil
	default:
		return Params{}, fmt.Errorf("gen: unknown scale %q (want one of %v)", name, PresetNames())
	}
}

// PresetNames lists the scale presets Preset accepts, smallest first.
func PresetNames() []string { return []string{"tiny", "small", "medium", "large", "internet"} }

// Tiny is the unit-test scale: converges in tens of milliseconds.
func Tiny() Params {
	p := base()
	p.Tier1, p.Mid, p.Stubs = 3, 10, 40
	p.ChurnEvents, p.RTBHEvents = 25, 4
	p.IXPs, p.IXPMemberSpan = 1, 6
	p.CollectorsPerPlatform = map[string]int{"RIS": 1, "RV": 1, "IS": 1, "PCH": 1}
	p.PeersPerCollector = 4
	return p
}

// Small is the default bench scale: a ~250-AS Internet, a second or two
// end to end.
func Small() Params {
	p := base()
	p.Tier1, p.Mid, p.Stubs = 5, 40, 200
	p.ChurnEvents, p.RTBHEvents = 120, 12
	p.IXPs, p.IXPMemberSpan = 2, 12
	p.CollectorsPerPlatform = map[string]int{"RIS": 2, "RV": 2, "IS": 1, "PCH": 3}
	p.PeersPerCollector = 8
	return p
}

// Medium is the headline reproduction scale (~1k ASes).
func Medium() Params {
	p := base()
	p.Tier1, p.Mid, p.Stubs = 8, 120, 900
	p.ChurnEvents, p.RTBHEvents = 400, 30
	p.IXPs, p.IXPMemberSpan = 3, 25
	p.CollectorsPerPlatform = map[string]int{"RIS": 3, "RV": 3, "IS": 2, "PCH": 5}
	p.PeersPerCollector = 10
	return p
}

// Large is the scale-out preset (~10k ASes): full topology with a
// sampled origin set, sized so the delta engine builds and converges it
// in well under a minute on one core (BenchmarkLargeWorldBuild tracks
// the number).
func Large() Params {
	p := base()
	p.Tier1, p.Mid, p.Stubs = 10, 500, 9500
	p.OriginSampleEvery = 32
	p.ChurnEvents, p.RTBHEvents = 80, 10
	p.IXPs, p.IXPMemberSpan = 4, 40
	p.CollectorsPerPlatform = map[string]int{"RIS": 3, "RV": 3, "IS": 2, "PCH": 5}
	p.PeersPerCollector = 12
	return p
}

// InternetScale is the paper-scale preset: ~63k ASes, matching the
// study's April 2018 table ("we observed about 63k ASes"), with the
// degree-skewed provider attachment the generator draws (a few hub
// transits carry thousands of stubs, CAIDA-style). Origins are sampled
// sparsely so the announced prefix universe stays a measured slice —
// the full 63k-AS control plane converges every one of them. Stub ASNs
// run past 65535, so (as in the real table, §4.2/Table 2) the high-ASN
// tail cannot name itself in classic communities; those stubs announce
// untagged or with private-ASN tags only.
func InternetScale() Params {
	p := base()
	p.Tier1, p.Mid, p.Stubs = 12, 1200, 61800
	p.OriginSampleEvery = 1024
	p.ChurnEvents, p.RTBHEvents = 12, 8
	p.IXPs, p.IXPMemberSpan = 6, 60
	p.CollectorsPerPlatform = map[string]int{"RIS": 4, "RV": 4, "IS": 2, "PCH": 6}
	p.PeersPerCollector = 16
	return p
}

func base() Params {
	return Params{
		Seed:                 1,
		MaxPrefixesPerOrigin: 2,
		V6Share:              0.08,
		// The mix is calibrated so the §4 headline shapes hold: >75% of
		// announcements carry communities, half of the on-path ones travel
		// more than half their path, and a visible minority of edges show
		// filtering indications.
		PropForwardAll:    0.55,
		PropStripAll:      0.12,
		PropActStripOwn:   0.20,
		PropStripForeign:  0.13,
		PBlackholeService: 0.35,
		PPrependService:   0.40,
		PLocalPrefService: 0.30,
		PLocationTagging:  0.30,
		POriginTags:       0.85,
		PIngressTags:      0.45,
		PBundling:         0.15,
		PPrivateTag:       0.06,
	}
}

// ASN ranges for generated entities. Everything stays below 2^16 so the
// classic community format can address every AS.
const (
	ASNTier1Base     topo.ASN = 10
	ASNMidBase       topo.ASN = 1000
	ASNStubBase      topo.ASN = 10000
	ASNIXPBase       topo.ASN = 59000
	ASNCollectorBase topo.ASN = 60001
	// ASNInjectorBase hosts attack-platform ASes (PEERING analogue).
	ASNInjectorBase topo.ASN = 61000
)

// ASNIXPBase16 hosts route servers in worlds whose stub range overruns
// the static layout. Route servers mint steering communities under
// their own ASN (ixp.AnnounceToCommunity), so unlike collectors and
// injectors they must stay 16-bit addressable — they park in the gap
// between the mid tier and the stub base.
const ASNIXPBase16 topo.ASN = 9000

// IXPBase returns the first route-server ASN for this parameter set. It
// is the static ASNIXPBase whenever the stub range ends below it (every
// preset through medium, so existing worlds are unchanged); paper-scale
// presets, whose tens of thousands of stubs overrun the static layout,
// use the 16-bit-safe ASNIXPBase16 window instead, keeping route-server
// communities attributable to a real AS.
func (p Params) IXPBase() topo.ASN {
	stubEnd := ASNStubBase + topo.ASN(p.Stubs)
	if stubEnd <= ASNIXPBase {
		return ASNIXPBase
	}
	return ASNIXPBase16
}

// infraBase is the floating base for infrastructure that does not mint
// communities (collectors, injectors) in worlds that overrun the
// static layout.
func (p Params) infraBase() topo.ASN {
	stubEnd := ASNStubBase + topo.ASN(p.Stubs)
	return (stubEnd + 999) / 1000 * 1000
}

// CollectorBase returns the first collector ASN, keeping the static
// offset above the stub range when it overruns the static layout.
func (p Params) CollectorBase() topo.ASN {
	if ASNStubBase+topo.ASN(p.Stubs) <= ASNIXPBase {
		return ASNCollectorBase
	}
	return p.infraBase() + (ASNCollectorBase - ASNIXPBase)
}

// InjectorBase returns the first attack-platform ASN, keeping the
// static offset above the stub range when it overruns the static
// layout.
func (p Params) InjectorBase() topo.ASN {
	if ASNStubBase+topo.ASN(p.Stubs) <= ASNIXPBase {
		return ASNInjectorBase
	}
	return p.infraBase() + (ASNInjectorBase - ASNIXPBase)
}
