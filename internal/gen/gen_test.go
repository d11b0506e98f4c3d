package gen

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/collector"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/semantics"
	"bgpworms/internal/topo"
)

func buildTiny(t *testing.T) *Internet {
	t.Helper()
	w, err := Build(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildTopologyShape(t *testing.T) {
	w := buildTiny(t)
	p := w.Params
	if w.Graph.NumASes() != p.Tier1+p.Mid+p.Stubs {
		t.Fatalf("ASes=%d want %d", w.Graph.NumASes(), p.Tier1+p.Mid+p.Stubs)
	}
	// Tier-1s form a clique of peers with no providers.
	for _, a := range w.tier1ASNs() {
		if len(w.Graph.Providers(a)) != 0 {
			t.Fatalf("tier1 AS%d has providers", a)
		}
		peers := 0
		for _, nb := range w.Graph.Neighbors(a) {
			if w.Graph.Relationship(a, nb) == topo.RelPeer {
				peers++
			}
		}
		if peers != p.Tier1-1 {
			t.Fatalf("tier1 AS%d peers=%d", a, peers)
		}
	}
	// Every stub has at least one provider and no customers.
	for _, s := range w.stubASNs() {
		if len(w.Graph.Providers(s)) == 0 || !w.Graph.IsStub(s) {
			t.Fatalf("stub AS%d malformed", s)
		}
	}
	// Every mid is connected upward.
	for _, m := range w.midASNs() {
		if len(w.Graph.Providers(m)) == 0 {
			t.Fatalf("mid AS%d has no providers", m)
		}
	}
}

// TestIngressTagsUnderCiscoCap holds the invariant that lets every
// ingress tag count toward the IOS addition cap without changing a
// generated world: no session is configured with more tags than the cap.
func TestIngressTagsUnderCiscoCap(t *testing.T) {
	for _, preset := range []struct {
		name string
		p    Params
	}{{"tiny", Tiny()}, {"small", Small()}} {
		if preset.name == "small" && testing.Short() {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			p := preset.p
			p.Seed = seed
			w, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			tagged := 0
			for _, asn := range w.Net.ASes() {
				for nb, tags := range w.Net.Router(asn).Config().IngressTags {
					if len(tags) > router.CiscoMaxAddedCommunities {
						t.Fatalf("%s seed %d: AS%d tags %d communities on the session to AS%d", preset.name, seed, asn, len(tags), nb)
					}
					tagged++
				}
			}
			if tagged == 0 {
				t.Fatalf("%s seed %d: no tagged session", preset.name, seed)
			}
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	w1 := buildTiny(t)
	w2 := buildTiny(t)
	if w1.Graph.NumLinks() != w2.Graph.NumLinks() {
		t.Fatal("topology not deterministic")
	}
	p1, p2 := w1.AllPrefixes(), w2.AllPrefixes()
	if len(p1) != len(p2) {
		t.Fatal("prefix allocation not deterministic")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("prefix order differs")
		}
	}
	// Same tags.
	for pfx, tags := range w1.OriginTags {
		other := w2.OriginTags[pfx]
		if tags.String() != other.String() {
			t.Fatalf("tags differ for %s: %v vs %v", pfx, tags, other)
		}
	}
}

func TestPrefixesReachTheCore(t *testing.T) {
	w := buildTiny(t)
	// Every originated v4 prefix must be visible at every tier-1.
	missing := 0
	for _, pfx := range w.AllPrefixes() {
		for _, t1 := range w.tier1ASNs() {
			if _, ok := w.Net.Router(t1).BestRoute(pfx); !ok {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d (prefix, tier1) pairs unreachable", missing)
	}
}

func TestOriginTagsArriveAtCollectors(t *testing.T) {
	w := buildTiny(t)
	// At least one collector observation must carry an origin-owned
	// community, proving communities transit multiple hops.
	found := false
	for _, c := range w.Collectors {
		for _, ob := range c.Observations() {
			ref := c.Route(ob)
			if !ref.Valid() {
				continue
			}
			rt := ref.Route()
			origin := rt.ASPath.Origin()
			for _, comm := range rt.Communities {
				if topo.ASN(comm.ASN()) == origin && origin >= ASNStubBase {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no origin community observed at any collector")
	}
}

func TestCollectorsAttached(t *testing.T) {
	w := buildTiny(t)
	if len(w.Collectors) != 4 {
		t.Fatalf("collectors=%d", len(w.Collectors))
	}
	platforms := map[collector.Platform]bool{}
	for _, c := range w.Collectors {
		platforms[c.Platform] = true
		if len(c.Observations()) == 0 {
			t.Fatalf("collector %s recorded nothing", c)
		}
	}
	if len(platforms) != 4 {
		t.Fatalf("platforms=%v", platforms)
	}
}

func TestRouteServersAttached(t *testing.T) {
	w := buildTiny(t)
	if len(w.RouteServers) != w.Params.IXPs {
		t.Fatalf("route servers=%d", len(w.RouteServers))
	}
	for _, rs := range w.RouteServers {
		if len(rs.Members()) == 0 {
			t.Fatal("route server without members")
		}
	}
}

func TestChurnProducesEvents(t *testing.T) {
	w := buildTiny(t)
	before := 0
	for _, c := range w.Collectors {
		before += len(c.Observations())
	}
	rep, err := w.RunChurn()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reannouncements == 0 {
		t.Fatal("no re-announcements")
	}
	if len(rep.RTBH) == 0 {
		t.Fatal("no RTBH episodes")
	}
	after := 0
	for _, c := range w.Collectors {
		after += len(c.Observations())
	}
	if after <= before {
		t.Fatal("churn generated no new observations")
	}
	// RTBH episodes target /32 host routes or whole /24s, always with a
	// provider's blackhole community.
	saw32 := false
	for _, ep := range rep.RTBH {
		if ep.HostRoute.Bits() != 32 && ep.HostRoute.Bits() != 24 {
			t.Fatalf("host route %s", ep.HostRoute)
		}
		if ep.HostRoute.Bits() == 32 {
			saw32 = true
		}
		if !ep.Community.IsBlackhole() && ep.Community.Value() != 999 {
			t.Fatalf("unexpected blackhole community %s", ep.Community)
		}
	}
	if !saw32 {
		t.Fatal("no host-route episodes")
	}
}

func TestPreset(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stubs == 0 {
			t.Fatalf("preset %q has no stubs", name)
		}
	}
	if _, err := Preset("galactic"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestFlagsParams pins the one command-line face of a world: -scale
// names the preset, -seed replaces the preset's seed, no flags give the
// default scale at seed 1, and an unknown scale is refused.
func TestFlagsParams(t *testing.T) {
	parse := func(args ...string) (Params, error) {
		fs := flag.NewFlagSet("world", flag.ContinueOnError)
		f := NewFlags(fs, "tiny")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f.Params()
	}
	want := Medium()
	want.Seed = 7
	if got, err := parse("-scale", "medium", "-seed", "7"); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("-scale medium -seed 7: %+v, %v; want %+v", got, err, want)
	}
	if got, err := parse(); err != nil || !reflect.DeepEqual(got, Tiny()) {
		t.Fatalf("no flags: %+v, %v; want the tiny preset at seed 1", got, err)
	}
	if _, err := parse("-scale", "galactic"); err == nil || !strings.Contains(err.Error(), `unknown scale "galactic"`) {
		t.Fatalf("-scale galactic: %v", err)
	}
}

// TestBuildRejectsRetiredEngines pins what Params.Engine accepts: an
// engine name other than "delta" (or the oracle's "rounds") is an error.
func TestBuildRejectsRetiredEngines(t *testing.T) {
	for _, engine := range []string{"serial", "auto", "warp"} {
		p := Tiny()
		p.Engine = engine
		if _, err := Build(p); err == nil {
			t.Errorf("Build accepted engine %q", engine)
		}
	}
}

func TestRegistryGroundTruth(t *testing.T) {
	w := buildTiny(t)
	if len(w.Registry.Verified) == 0 {
		t.Fatal("no verified blackhole communities")
	}
	// RFC 7999 always present.
	has7999 := false
	for _, c := range w.Registry.Verified {
		if c == bgp.CommunityBlackhole {
			has7999 = true
		}
	}
	if !has7999 {
		t.Fatal("RFC 7999 missing from registry")
	}
	// Verified entries (other than 65535:666) map to ASes with the
	// service.
	for _, c := range w.Registry.Verified {
		if c == bgp.CommunityBlackhole {
			continue
		}
		cat := w.Catalogs[topo.ASN(c.ASN())]
		if bh, ok := cat.BlackholeCommunity(); !ok || bh != c {
			t.Fatalf("verified %s has no backing service", c)
		}
	}
	// Likely decoys must NOT have the service.
	for _, c := range w.Registry.Likely {
		if _, ok := w.Catalogs[topo.ASN(c.ASN())].BlackholeCommunity(); ok {
			t.Fatalf("decoy %s actually has the service", c)
		}
	}
	if got := len(w.Registry.All()); got != len(w.Registry.Verified)+len(w.Registry.Likely) {
		t.Fatalf("All()=%d", got)
	}
}

// TestTruthDictionary checks the exported dictionary ground truth: it
// covers every catalog service with the right class, every origin tag,
// and the well-known values, and labs extending catalogs after Build
// surface through TruthDict.
func TestTruthDictionary(t *testing.T) {
	w := buildTiny(t)
	dict := w.TruthDict()
	if len(dict) == 0 {
		t.Fatal("empty ground-truth dictionary")
	}
	for asn, cat := range w.Catalogs {
		for _, svc := range cat.Services {
			want := semantics.ClassOfService(svc.Kind)
			if got, ok := dict[svc.Community]; !ok || got != want {
				t.Fatalf("AS%d service %s: dict has (%v, %v), want %s", asn, svc.Community, got, ok, want)
			}
		}
	}
	for pfx, tags := range w.OriginTags {
		for _, c := range tags {
			if _, ok := dict[c]; !ok {
				t.Fatalf("origin tag %s of %s missing from dict", c, pfx)
			}
		}
	}
	if dict[bgp.CommunityNoExport] != semantics.ClassWellKnown {
		t.Fatal("NO_EXPORT not well-known in dict")
	}
	// Decoys are exactly the non-entries: a Likely registry community
	// must not be in the ground truth (its AS offers no service).
	for _, c := range w.Registry.Likely {
		if _, ok := dict[c]; ok {
			t.Fatalf("decoy %s leaked into ground truth", c)
		}
	}
	// TruthDict is live: a service added after Build (what attack labs
	// do) appears on recomputation.
	added := bgp.C(60123, 107)
	w.Catalogs[w.TransitASes()[0]].Add(policy.Service{Community: added, Kind: policy.SvcPrepend, Param: 2})
	if got := w.TruthDict()[added]; got != semantics.ClassActionPrepend {
		t.Fatalf("live TruthDict missed added service (got %s)", got)
	}
}

func TestOriginOfAndAllPrefixes(t *testing.T) {
	w := buildTiny(t)
	all := w.AllPrefixes()
	if len(all) == 0 {
		t.Fatal("no prefixes")
	}
	asn, ok := w.OriginOf(all[0])
	if !ok || asn < ASNStubBase {
		t.Fatalf("OriginOf(%s)=%d,%v", all[0], asn, ok)
	}
	if _, ok := w.OriginOf(all[0].Masked()); !ok {
		t.Fatal("masked lookup failed")
	}
}

func TestV6PrefixesGenerated(t *testing.T) {
	p := Tiny()
	p.V6Share = 1.0 // force
	w, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	v6 := 0
	for _, pfx := range w.AllPrefixes() {
		if pfx.Addr().Is6() {
			v6++
		}
	}
	if v6 != p.Stubs {
		t.Fatalf("v6 prefixes=%d want %d", v6, p.Stubs)
	}
}

func TestScaleForYearMonotone(t *testing.T) {
	base := Small()
	last := 0
	for _, y := range []int{2010, 2012, 2014, 2016, 2018} {
		p := ScaleForYear(base, y)
		size := p.Tier1 + p.Mid + p.Stubs
		if size < last {
			t.Fatalf("scale not monotone at %d", y)
		}
		last = size
	}
	p2018 := ScaleForYear(base, 2018)
	if p2018.Stubs < base.Stubs*9/10 {
		t.Fatalf("2018 should be near base scale: %d vs %d", p2018.Stubs, base.Stubs)
	}
}

func TestEvolutionSeries(t *testing.T) {
	pts, err := Evolution(Tiny(), []int{2010, 2018}, func(w *Internet) (int, int, int, int) {
		// Trivial metric: count observations.
		n := 0
		for _, c := range w.Collectors {
			n += len(c.Observations())
		}
		return n, n, n, n
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Year != 2010 || pts[1].Year != 2018 {
		t.Fatalf("pts=%v", pts)
	}
	if pts[1].AbsoluteCommunities <= pts[0].AbsoluteCommunities {
		t.Fatalf("2018 (%d) should exceed 2010 (%d)", pts[1].AbsoluteCommunities, pts[0].AbsoluteCommunities)
	}
}

func TestTransitAndStubAccessors(t *testing.T) {
	w := buildTiny(t)
	if len(w.TransitASes()) != w.Params.Tier1+w.Params.Mid {
		t.Fatal("TransitASes wrong")
	}
	if len(w.StubASes()) != w.Params.Stubs {
		t.Fatal("StubASes wrong")
	}
}

// TestPaperScaleASNLayout pins the infrastructure ASN layout: presets
// that fit the static layout keep it (existing worlds unchanged), and
// paper-scale presets keep route servers 16-bit addressable — their
// steering communities must name a real AS — while collectors and
// injectors float above the stub range.
func TestPaperScaleASNLayout(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "large"} {
		p, _ := Preset(name)
		if p.IXPBase() != ASNIXPBase || p.CollectorBase() != ASNCollectorBase || p.InjectorBase() != ASNInjectorBase {
			t.Fatalf("%s: static layout moved: ixp=%d coll=%d inj=%d", name, p.IXPBase(), p.CollectorBase(), p.InjectorBase())
		}
	}
	p := InternetScale()
	if end := p.IXPBase() + topo.ASN(p.IXPs); end > 0xFFFF {
		t.Fatalf("internet route servers not 16-bit addressable (end %d)", end)
	}
	if p.IXPBase() < ASNMidBase+topo.ASN(p.Mid) || p.IXPBase()+topo.ASN(p.IXPs) > ASNStubBase {
		t.Fatalf("internet route-server window %d collides with mid/stub ranges", p.IXPBase())
	}
	stubEnd := ASNStubBase + topo.ASN(p.Stubs)
	if p.CollectorBase() <= stubEnd || p.InjectorBase() <= stubEnd {
		t.Fatalf("internet collector/injector bases inside the stub range: %d/%d", p.CollectorBase(), p.InjectorBase())
	}
}
