package core

import (
	"net/netip"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
)

var (
	t0   = time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)
	pfxA = netx.MustPrefix("203.0.113.0/24")
	pfxB = netx.MustPrefix("198.51.100.0/24")
)

// upd is one announcement at collector col; the collector's name
// carries its platform ("RIS-rrc00" is on RIS), as generated names do.
func upd(col string, peer uint32, p netip.Prefix, path []uint32, comms ...bgp.Community) feed.Event {
	return feed.Event{
		Source:      col,
		PeerAS:      peer,
		Time:        t0,
		Prefix:      p,
		ASPath:      path,
		Communities: bgp.NewCommunitySet(comms...),
	}
}

// analyze is the in-package tests' one way into the pipeline: each test
// reads the fields it checks off a single Analyze result.
func analyze(ds *Dataset, knownBlackhole ...bgp.Community) *Analysis {
	return NewPipeline(0).Analyze(ds, knownBlackhole)
}

func smallDataset() *Dataset {
	ds := &Dataset{
		Collectors: []CollectorMeta{
			{Platform: "RIS", Name: "RIS-rrc00", PeerIPs: 2, PeerASNs: map[uint32]bool{5: true, 7: true}},
			{Platform: "RV", Name: "RV-rv0", PeerIPs: 1, PeerASNs: map[uint32]bool{9: true}},
		},
	}
	// Path display order: nearest first, origin last.
	ds.Updates = []feed.Event{
		// Community 3:100 tagged by AS3 at index 2 — traveled 3 hops.
		upd("RIS-rrc00", 5, pfxA, []uint32{5, 4, 3, 2, 1}, bgp.C(3, 100), bgp.C(1, 200)),
		// Prepended path: 4 4 4 3 1 → stripped 4 3 1.
		upd("RIS-rrc00", 7, pfxA, []uint32{7, 4, 4, 4, 3, 1}, bgp.C(99, 666)),
		// v6 prefix, no communities (RV platform).
		upd("RV-rv0", 9, netx.MustPrefix("2001:db8::/32"), []uint32{9, 3, 1}),
		// Withdrawal.
		{Source: "RV-rv0", PeerAS: 9, Time: t0, Prefix: pfxB, Withdraw: true},
	}
	return ds
}

func TestStrippedPathAndOrigin(t *testing.T) {
	u := upd("RIS-c", 5, pfxA, []uint32{5, 4, 4, 4, 3})
	got := strippedPath(&u)
	if len(got) != 3 || got[0] != 5 || got[2] != 3 {
		t.Fatalf("stripped=%v", got)
	}
}

func TestTable1Counts(t *testing.T) {
	rows := analyze(smallDataset()).Table1
	if len(rows) != 3 { // RIS, RV, Total
		t.Fatalf("rows=%d", len(rows))
	}
	ris := rows[0]
	if ris.Source != "RIS" || ris.Messages != 2 {
		t.Fatalf("ris=%+v", ris)
	}
	if ris.IPv4Prefixes != 1 || ris.IPv6Prefixes != 0 {
		t.Fatalf("ris prefixes=%+v", ris)
	}
	if ris.Communities != 3 {
		t.Fatalf("ris communities=%d", ris.Communities)
	}
	// RIS paths: {5,4,3,2,1} and {7,4,3,1} → ASes {1,2,3,4,5,7}.
	if ris.ASes != 6 {
		t.Fatalf("ris ASes=%d", ris.ASes)
	}
	// Origins: {1}; transit: {5,4,3,2,7}; stubs = 6-5 = 1.
	if ris.Origin != 1 || ris.Transit != 5 || ris.Stub != 1 {
		t.Fatalf("ris roles=%+v", ris)
	}
	if ris.Collectors != 1 || ris.IPPeers != 2 || ris.ASPeers != 2 {
		t.Fatalf("ris infra=%+v", ris)
	}
	total := rows[2]
	if total.Source != "Total" || total.Messages != 4 {
		t.Fatalf("total=%+v", total)
	}
	if total.IPv6Prefixes != 1 || total.Collectors != 2 || total.ASPeers != 3 {
		t.Fatalf("total=%+v", total)
	}
	if RenderTable1(rows) == "" {
		t.Fatal("render empty")
	}
}

func TestTable2Classification(t *testing.T) {
	rows := analyze(smallDataset()).Table2
	ris := rows[0]
	// Communities: 3:100 (AS3 on path), 1:200 (AS1 on path), 99:666 (AS99
	// off path). Total distinct ASes = {3,1,99} = 3.
	if ris.Total != 3 {
		t.Fatalf("total=%d", ris.Total)
	}
	if ris.OnPath != 2 || ris.OffPath != 1 {
		t.Fatalf("on=%d off=%d", ris.OnPath, ris.OffPath)
	}
	// None of {1,3,99} is a collector peer ({5,7}).
	if ris.WithoutCollectorPeer != 3 {
		t.Fatalf("w/o peer=%d", ris.WithoutCollectorPeer)
	}
	// 99 is not private.
	if ris.OffPathWithoutPrivate != 1 {
		t.Fatalf("off w/o private=%d", ris.OffPathWithoutPrivate)
	}
	if RenderTable2(rows) == "" {
		t.Fatal("render empty")
	}
}

func TestTable2PrivateASN(t *testing.T) {
	ds := &Dataset{Collectors: []CollectorMeta{{Platform: "RIS", Name: "RIS-c", PeerASNs: map[uint32]bool{}}}}
	ds.Updates = []feed.Event{upd("RIS-c", 5, pfxA, []uint32{5, 1}, bgp.C(64512, 1), bgp.C(700, 2))}
	rows := analyze(ds).Table2
	r := rows[0]
	if r.OffPath != 2 || r.OffPathWithoutPrivate != 1 {
		t.Fatalf("row=%+v", r)
	}
}

func TestWellKnownExcludedFromTable2(t *testing.T) {
	ds := &Dataset{Collectors: []CollectorMeta{{Platform: "RIS", Name: "RIS-c", PeerASNs: map[uint32]bool{}}}}
	ds.Updates = []feed.Event{upd("RIS-c", 5, pfxA, []uint32{5, 1}, bgp.CommunityNoExport, bgp.CommunityBlackhole, bgp.C(0, 4))}
	rows := analyze(ds).Table2
	if rows[0].Total != 0 {
		t.Fatalf("reserved ranges must not count as ASes: %+v", rows[0])
	}
}

func TestFigure4a(t *testing.T) {
	a := analyze(smallDataset())
	fr := a.Fig4a
	if len(fr) != 2 {
		t.Fatalf("fractions=%v", fr)
	}
	// rrc00: both updates have communities (fraction 1.0); rv0: one
	// announcement without communities (fraction 0).
	var rrc, rv CollectorFraction
	for _, f := range fr {
		switch f.Collector {
		case "RIS-rrc00":
			rrc = f
		case "RV-rv0":
			rv = f
		}
	}
	if rrc.Fraction() != 1.0 || rrc.Updates != 2 {
		t.Fatalf("rrc=%+v", rrc)
	}
	if rv.Fraction() != 0 || rv.Updates != 1 {
		t.Fatalf("rv=%+v", rv)
	}
	if RenderFigure4a(fr) == "" {
		t.Fatal("render empty")
	}
	if share := a.Share; share <= 0.6 || share >= 0.7 { // 2 of 3 announcements
		t.Fatalf("share=%v", share)
	}
}

func TestFigure4b(t *testing.T) {
	f := analyze(smallDataset()).Fig4b
	if f.CommunitiesPerUpdate.Len() != 3 {
		t.Fatalf("len=%d", f.CommunitiesPerUpdate.Len())
	}
	// Updates carry 2, 1, 0 communities.
	if got := f.CommunitiesPerUpdate.At(0); got < 0.33 || got > 0.34 {
		t.Fatalf("P[X<=0]=%v", got)
	}
	if got := f.CommunitiesPerUpdate.At(2); got != 1 {
		t.Fatalf("P[X<=2]=%v", got)
	}
	// ASes per update: 2, 1, 0.
	if got := f.ASesPerUpdate.Quantile(1); got != 2 {
		t.Fatalf("max ases=%v", got)
	}
	if RenderFigure4b(f) == "" {
		t.Fatal("render empty")
	}
}

func TestTaggerIndexAndDistance(t *testing.T) {
	path := []uint32{5, 4, 3, 2, 1}
	if got := TaggerIndex(path, bgp.C(3, 1)); got != 2 {
		t.Fatalf("idx=%d", got)
	}
	if got := TaggerIndex(path, bgp.C(5, 1)); got != 0 {
		t.Fatalf("idx=%d", got)
	}
	if got := TaggerIndex(path, bgp.C(99, 1)); got != -1 {
		t.Fatalf("idx=%d", got)
	}
	o := CommunityObservation{TaggerIdx: 2}
	if o.Distance() != 3 {
		t.Fatalf("distance=%d", o.Distance())
	}
	off := CommunityObservation{TaggerIdx: -1}
	if off.Distance() != -1 || off.OnPath() {
		t.Fatal("off-path geometry wrong")
	}
}

func TestAnalyzePropagationAndFig5a(t *testing.T) {
	ds := smallDataset()
	pa := analyze(ds).Prop
	// Communities analyzed: 3:100 (on, idx2), 1:200 (on, idx4), 99:666
	// (off). Total observations = 3.
	if len(pa.Observations) != 3 {
		t.Fatalf("obs=%d", len(pa.Observations))
	}
	all, bh := pa.Figure5a()
	if all.Len() != 2 {
		t.Fatalf("on-path distances=%d", all.Len())
	}
	// Distances: 3 (idx2+1) and 5 (idx4+1).
	if all.At(3) != 0.5 || all.At(5) != 1 {
		t.Fatalf("ecdf: %v %v", all.At(3), all.At(5))
	}
	// 99:666 is blackhole-valued but off-path: no distance sample.
	if bh.Len() != 0 {
		t.Fatalf("bh=%d", bh.Len())
	}
	if RenderFigure5a(all, bh) == "" {
		t.Fatal("render empty")
	}
}

func TestBlackholeClassifier(t *testing.T) {
	cls := IsBlackholeClassifier([]bgp.Community{bgp.C(10, 999)})
	if !cls(bgp.C(5, 666)) || !cls(bgp.C(10, 999)) || cls(bgp.C(10, 100)) {
		t.Fatal("classifier wrong")
	}
}

func TestFigure5bExcludesMonitorPeerTagger(t *testing.T) {
	ds := &Dataset{Collectors: []CollectorMeta{{Platform: "RIS", Name: "RIS-c", PeerASNs: map[uint32]bool{}}}}
	ds.Updates = []feed.Event{
		// Tagger = peer (idx 0): excluded. Tagger idx 1: kept.
		upd("RIS-c", 5, pfxA, []uint32{5, 4, 1}, bgp.C(5, 1), bgp.C(4, 2)),
	}
	pa := analyze(ds).Prop
	m := pa.Figure5b(3, 10)
	e, ok := m[3]
	if !ok || e.Len() != 1 {
		t.Fatalf("fig5b=%v", m)
	}
	// Distance 2 over path length 3.
	if got := e.Quantile(0.5); got < 0.66 || got > 0.67 {
		t.Fatalf("rel=%v", got)
	}
	if RenderFigure5b(m) == "" {
		t.Fatal("render empty")
	}
}

func TestFigure5cTopValues(t *testing.T) {
	ds := &Dataset{Collectors: []CollectorMeta{{Platform: "RIS", Name: "RIS-c", PeerASNs: map[uint32]bool{}}}}
	ds.Updates = []feed.Event{
		upd("RIS-c", 5, pfxA, []uint32{5, 1}, bgp.C(1, 100), bgp.C(5, 100), bgp.C(99, 666)),
		upd("RIS-c", 5, pfxB, []uint32{5, 1}, bgp.C(1, 100), bgp.C(98, 666)),
	}
	pa := analyze(ds).Prop
	off, on := pa.Figure5c(10)
	if len(off) != 1 || off[0].Value != 666 || off[0].Count != 2 || off[0].Share != 1 {
		t.Fatalf("off=%v", off)
	}
	if len(on) != 1 || on[0].Value != 100 || on[0].Count != 3 {
		t.Fatalf("on=%v", on)
	}
	if RenderFigure5c(off, on) == "" {
		t.Fatal("render empty")
	}
	// Equal counts rank by the value's decimal text: 100 before 20.
	ds.Updates = append(ds.Updates, upd("RIS-c", 5, pfxB, []uint32{5, 1}, bgp.C(97, 20), bgp.C(96, 100)))
	if off, _ = analyze(ds).Prop.Figure5c(10); len(off) != 3 || off[1].Value != 100 || off[2].Value != 20 {
		t.Fatalf("tied values out of decimal-text order: off=%v", off)
	}
}

func TestTransitPropagators(t *testing.T) {
	ds := &Dataset{Collectors: []CollectorMeta{{Platform: "RIS", Name: "RIS-c", PeerASNs: map[uint32]bool{}}}}
	ds.Updates = []feed.Event{
		// Community of AS1 (origin, idx 3): relayers are idx 1,2 = {4,3}.
		// Peer (idx 0 = AS5) excluded.
		upd("RIS-c", 5, pfxA, []uint32{5, 4, 3, 1}, bgp.C(1, 100)),
		// No-community update defines more transit ASes.
		upd("RIS-c", 9, pfxB, []uint32{9, 8, 7}),
	}
	rep := analyze(ds).Transit
	// Transit: non-origin positions: {5,4,3} ∪ {9,8} = 5.
	if rep.TransitASes != 5 {
		t.Fatalf("transit=%d", rep.TransitASes)
	}
	if rep.Propagators != 2 {
		t.Fatalf("propagators=%d", rep.Propagators)
	}
}

func TestLatestRoutesDedup(t *testing.T) {
	u1 := upd("RIS-c", 5, pfxA, []uint32{5, 1}, bgp.C(1, 1))
	u2 := upd("RIS-c", 5, pfxA, []uint32{5, 2, 1}, bgp.C(1, 2))
	w := feed.Event{Source: "RIS-c", PeerAS: 7, Prefix: pfxB, Withdraw: true}
	latestOf := func(evs ...feed.Event) []*feed.Event {
		agg := make(latestAgg)
		for i := range evs {
			agg.add(&evs[i])
		}
		return agg.finalize(1)
	}
	latest := latestOf(u1, u2, w)
	if len(latest) != 1 {
		t.Fatalf("latest=%v", latest)
	}
	if !latest[0].Communities.Has(bgp.C(1, 2)) {
		t.Fatal("did not keep the newest route")
	}
	// Announce then withdraw → gone.
	if len(latestOf(u1, feed.Event{Source: "RIS-c", PeerAS: 5, Prefix: pfxA, Withdraw: true})) != 0 {
		t.Fatal("withdrawn route survived")
	}
}

func TestInferFilteringPaperExample(t *testing.T) {
	// Figure 6a: A1 path (origin-first) AS1,AS2,AS3,AS4 carries AS2:X;
	// A2 path AS1,AS2,AS3,AS5 carries none.
	// Display order is nearest-first: A1 = [4,3,2,1], A2 = [5,3,2,1]...
	// Careful: paper's A2 traverses AS2 as well: AS1,AS2,AS3,AS5 →
	// nearest-first [5,3,2,1].
	ds := &Dataset{}
	ds.Updates = []feed.Event{
		upd("RIS-c1", 4, pfxA, []uint32{4, 3, 2, 1}, bgp.C(2, 77)),
		upd("RIS-c2", 5, pfxA, []uint32{5, 3, 2, 1}),
	}
	fi := analyze(ds).Filter

	// Added indication on (AS2, AS3).
	if in := fi.Edges[Edge{2, 3}]; in == nil || in.Added != 1 {
		t.Fatalf("added=%+v", fi.Edges[Edge{2, 3}])
	}
	// Forward indication on (AS3, AS4).
	if in := fi.Edges[Edge{3, 4}]; in == nil || in.Forwarded != 1 {
		t.Fatalf("forwarded=%+v", fi.Edges[Edge{3, 4}])
	}
	// Filter indication on (AS3, AS5).
	if in := fi.Edges[Edge{3, 5}]; in == nil || in.Filtered != 1 {
		t.Fatalf("filtered=%+v", fi.Edges[Edge{3, 5}])
	}
	// Path counts: edge (1,2) seen twice.
	if in := fi.Edges[Edge{1, 2}]; in == nil || in.Paths != 2 {
		t.Fatalf("paths=%+v", fi.Edges[Edge{1, 2}])
	}

	s := fi.Summarize(1)
	if s.WithForwardSign != 1 || s.WithFilterSign != 1 {
		t.Fatalf("summary=%+v", s)
	}
	if RenderFilterSummary(s) == "" {
		t.Fatal("render empty")
	}
	if bins := fi.Hexbin(1, 4); len(bins) == 0 {
		t.Fatal("hexbin empty")
	}
}

func TestInferFilteringMixedEdge(t *testing.T) {
	// Same edge forwards one community and filters another.
	ds := &Dataset{}
	ds.Updates = []feed.Event{
		upd("RIS-c1", 4, pfxA, []uint32{4, 3, 2, 1}, bgp.C(2, 1)),
		upd("RIS-c2", 5, pfxA, []uint32{5, 4, 3, 2, 1}, bgp.C(2, 1)),
		// Second prefix: community from AS2 reaches AS3 via c1's view but
		// is missing on the path via 4→5.
		upd("RIS-c1", 4, pfxB, []uint32{4, 3, 2, 1}, bgp.C(2, 2)),
		upd("RIS-c2", 5, pfxB, []uint32{5, 4, 3, 2, 1}),
	}
	fi := analyze(ds).Filter
	if in := fi.Edges[Edge{4, 5}]; in == nil || in.Forwarded == 0 || in.Filtered == 0 {
		t.Fatalf("edge (4,5) should carry both indications: %+v", in)
	}
}

func TestEvolutionMetrics(t *testing.T) {
	ua, uc, abs, te := NewPipeline(0).EvolutionMetrics(smallDataset())
	// Communities: 3:100, 1:200, 99:666 → 3 ASes, 3 uniques, 3 absolute.
	if ua != 3 || uc != 3 || abs != 3 {
		t.Fatalf("ua=%d uc=%d abs=%d", ua, uc, abs)
	}
	if te != 3 { // three latest announcements
		t.Fatalf("te=%d", te)
	}
}

// TestGeneratedCollectorNamesCarryPlatform holds the invariant that let
// the record drop its per-update platform label: every collector the
// generator attaches is named "<platform>-NN", so platformOf(name) gives
// back the platform it was built with, on tiny and small worlds alike.
func TestGeneratedCollectorNamesCarryPlatform(t *testing.T) {
	for _, scale := range []string{"tiny", "small"} {
		for seed := int64(1); seed <= 3; seed++ {
			p, err := gen.Preset(scale)
			if err != nil {
				t.Fatal(err)
			}
			p.Seed = seed
			w, err := gen.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Collectors) == 0 {
				t.Fatalf("%s seed %d: no collectors", scale, seed)
			}
			for _, c := range w.Collectors {
				if got := platformOf(c.Name); got != string(c.Platform) {
					t.Errorf("%s seed %d: collector %q reads as platform %q, built on %q", scale, seed, c.Name, got, c.Platform)
				}
			}
		}
	}
}
