package bgpworms

// The benchmark harness: one benchmark per table and figure in the
// paper's evaluation, plus ablations for the engine's design choices
// (LPM trie, tagger attribution, community-set layout). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates the corresponding rows/series; pass -v to
// see them via b.Logf on the first iteration.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	"bgpworms/internal/attack"
	"bgpworms/internal/bgp"
	"bgpworms/internal/core"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
	"bgpworms/internal/obs"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/serve"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
	"bgpworms/internal/watch"
)

var (
	fixOnce sync.Once
	fixLab  *attack.Lab
	fixDS   *core.Dataset
	fixErr  error
)

// fixture builds the benchmark world once: a Small-scale Internet with a
// month of churn, both injection platforms, and a dataset snapshot taken
// before any attack runs.
func fixture(b *testing.B) (*attack.Lab, *core.Dataset) {
	fixOnce.Do(func() {
		lab, err := attack.NewLab(gen.Small(), 48)
		if err != nil {
			fixErr = err
			return
		}
		if _, err := lab.W.RunChurn(); err != nil {
			fixErr = err
			return
		}
		fixLab = lab
		fixDS = core.FromCollectors(lab.W.Collectors)
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixLab, fixDS
}

func logOnce(b *testing.B, i int, s string) {
	if i == 0 {
		b.Logf("\n%s", s)
	}
}

// BenchmarkTable1DatasetOverview regenerates Table 1: the per-platform
// dataset overview (messages, prefixes, collectors, peers, communities,
// AS roles).
func BenchmarkTable1DatasetOverview(b *testing.B) {
	_, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := core.Table1(ds)
		if len(rows) != 5 {
			b.Fatalf("rows=%d", len(rows))
		}
		logOnce(b, i, core.RenderTable1(rows))
	}
}

// BenchmarkTable2CommunityASes regenerates Table 2: ASes observed in
// communities, split into on-path / off-path / private.
func BenchmarkTable2CommunityASes(b *testing.B) {
	_, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := core.Table2(ds)
		if rows[len(rows)-1].Total == 0 {
			b.Fatal("empty table 2")
		}
		logOnce(b, i, core.RenderTable2(rows))
	}
}

// BenchmarkFigure3UseOverTime regenerates the Figure 3 time series:
// community use 2010–2018 (unique ASes, unique communities, absolute
// communities, table entries), one synthetic Internet per year.
func BenchmarkFigure3UseOverTime(b *testing.B) {
	years := []int{2010, 2012, 2014, 2016, 2018}
	for i := 0; i < b.N; i++ {
		pts, err := gen.Evolution(gen.Tiny(), years, func(w *gen.Internet) (int, int, int, int) {
			return core.EvolutionMetrics(core.FromCollectors(w.Collectors))
		})
		if err != nil {
			b.Fatal(err)
		}
		if pts[len(pts)-1].UniqueCommunities <= pts[0].UniqueCommunities {
			b.Fatal("community use must grow over time")
		}
		if i == 0 {
			for _, p := range pts {
				b.Logf("year=%d uniqueASes=%d uniqueComms=%d absolute=%d tableEntries=%d",
					p.Year, p.UniqueASes, p.UniqueCommunities, p.AbsoluteCommunities, p.TableEntries)
			}
		}
	}
}

// BenchmarkFigure4aUpdatesWithCommunities regenerates Figure 4a: the
// per-collector fraction of updates carrying communities, per platform.
func BenchmarkFigure4aUpdatesWithCommunities(b *testing.B) {
	_, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := core.Figure4a(ds)
		if len(fr) == 0 {
			b.Fatal("no collectors")
		}
		share := core.OverallCommunityShare(ds)
		b.ReportMetric(share*100, "%updates_w_comm")
		logOnce(b, i, core.RenderFigure4a(fr))
	}
}

// BenchmarkFigure4bCommunitiesPerUpdate regenerates Figure 4b: ECDFs of
// communities per update and associated ASes per update.
func BenchmarkFigure4bCommunitiesPerUpdate(b *testing.B) {
	_, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := core.ComputeFigure4b(ds)
		if f.CommunitiesPerUpdate.Len() == 0 {
			b.Fatal("empty distribution")
		}
		logOnce(b, i, core.RenderFigure4b(f))
	}
}

// BenchmarkFigure5aPropagationDistance regenerates Figure 5a: ECDF of
// community propagation hop counts, all vs blackholing communities.
func BenchmarkFigure5aPropagationDistance(b *testing.B) {
	lab, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := core.AnalyzePropagation(ds, lab.W.Registry.All())
		all, bh := pa.Figure5a()
		if all.Len() == 0 {
			b.Fatal("no distances")
		}
		b.ReportMetric(all.Mean(), "mean_hops_all")
		if bh.Len() > 0 {
			b.ReportMetric(bh.Mean(), "mean_hops_blackhole")
		}
		logOnce(b, i, core.RenderFigure5a(all, bh))
	}
}

// BenchmarkFigure5bRelativeDistance regenerates Figure 5b: relative
// propagation distance by AS-path length.
func BenchmarkFigure5bRelativeDistance(b *testing.B) {
	lab, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := core.AnalyzePropagation(ds, lab.W.Registry.All())
		m := pa.Figure5b(3, 10)
		if len(m) == 0 {
			b.Fatal("no groups")
		}
		logOnce(b, i, core.RenderFigure5b(m))
	}
}

// BenchmarkFigure5cTopValues regenerates Figure 5c: top-10 community
// values off-path vs on-path.
func BenchmarkFigure5cTopValues(b *testing.B) {
	lab, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := core.AnalyzePropagation(ds, lab.W.Registry.All())
		off, on := pa.Figure5c(10)
		if len(on) == 0 {
			b.Fatal("no on-path values")
		}
		logOnce(b, i, core.RenderFigure5c(off, on))
	}
}

// BenchmarkTransitPropagators regenerates the §4.3 headline: the count
// and share of transit ASes relaying foreign communities.
func BenchmarkTransitPropagators(b *testing.B) {
	_, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.TransitPropagators(ds)
		if rep.Propagators == 0 {
			b.Fatal("no propagators")
		}
		b.ReportMetric(rep.Fraction()*100, "%transit_propagating")
	}
}

// BenchmarkFigure6FilterInference regenerates Figure 6: per-edge
// forwarding/filtering indication counts, the summary percentages, and
// the log-log bins of Figure 6b.
func BenchmarkFigure6FilterInference(b *testing.B) {
	lab, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fi := core.InferFiltering(ds)
		s := fi.Summarize(10)
		if s.TotalEdges == 0 {
			b.Fatal("no edges")
		}
		bins := fi.Hexbin(1, 4)
		if len(bins) == 0 {
			b.Fatal("no bins")
		}
		_ = fi.ByRelationship(lab.W.Graph)
		logOnce(b, i, core.RenderFilterSummary(s))
	}
}

// BenchmarkLabVendorMatrix reproduces the §6.1 lab findings: JunOS
// forwards communities by default, IOS only with send-community, and IOS
// caps configuration-added communities at 32.
func BenchmarkLabVendorMatrix(b *testing.B) {
	pfx := netx.MustPrefix("203.0.113.0/24")
	for i := 0; i < b.N; i++ {
		for _, vendor := range []router.Vendor{router.VendorJuniper, router.VendorCisco} {
			for _, send := range []bool{false, true} {
				cfg := router.Config{ASN: 65001, Vendor: vendor}
				if send {
					cfg.SendCommunity = map[topo.ASN]bool{64501: true}
				}
				r := router.New(cfg)
				r.AddNeighbor(64500, topo.RelCustomer)
				r.AddNeighbor(64501, topo.RelCustomer)
				in := policy.NewLocalRoute(pfx)
				in.ASPath = bgp.Path(64500, 1)
				in.Communities = bgp.NewCommunitySet(bgp.C(7, 7))
				r.ReceiveUpdate(64500, in)
				out, d := r.ExportTo(64501, pfx)
				if d != router.ExportSent {
					b.Fatal(d)
				}
				kept := out.Communities.Has(bgp.C(7, 7))
				wantKept := vendor == router.VendorJuniper || send
				if kept != wantKept {
					b.Fatalf("vendor=%v send=%v kept=%v", vendor, send, kept)
				}
			}
		}
	}
}

// BenchmarkSec72PropagationCheck reproduces §7.2: benign-community
// propagation from both injection platforms.
func BenchmarkSec72PropagationCheck(b *testing.B) {
	lab, _ := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := lab.PropagationCheck(lab.Research)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := lab.PropagationCheck(lab.Peering)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r1.ForwardingTransits), "research_transits")
		b.ReportMetric(float64(r2.ForwardingTransits), "peering_transits")
		logOnce(b, i, attack.RenderPropagation([]*attack.PropagationReport{r1, r2}))
	}
}

// BenchmarkSec73RTBH reproduces §7.3: remote blackholing without and with
// hijack.
func BenchmarkSec73RTBH(b *testing.B) {
	lab, _ := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, hijack := range []bool{false, true} {
			res, err := lab.RunRTBH(hijack)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Success {
				b.Fatalf("RTBH hijack=%v failed: %v", hijack, res.Evidence)
			}
		}
	}
}

// BenchmarkSec74Steering reproduces §7.4: local-pref and prepending
// steering attacks (graded hard; success depends on customer-chain
// targets existing).
func BenchmarkSec74Steering(b *testing.B) {
	lab, _ := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp, err := lab.RunSteeringLocalPref(false)
		if err != nil {
			b.Fatal(err)
		}
		pp, err := lab.RunSteeringPrepend(false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("local-pref success=%v; prepend success=%v", lp.Success, pp.Success)
		}
	}
}

// BenchmarkSec75RouteManipulation reproduces §7.5: conflicting
// announce/suppress communities at the IXP route server.
func BenchmarkSec75RouteManipulation(b *testing.B) {
	lab, _ := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lab.RunRouteManipulation(false)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Success {
			b.Fatalf("manipulation failed: %v", res.Evidence)
		}
	}
}

// BenchmarkTable3AttackMatrix regenerates Table 3: the full scenario ×
// hijack matrix with difficulty grades.
func BenchmarkTable3AttackMatrix(b *testing.B) {
	lab, _ := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := lab.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 8 {
			b.Fatalf("rows=%d", len(results))
		}
		logOnce(b, i, attack.RenderTable3(results))
	}
}

// BenchmarkSec76BlackholeSweep reproduces §7.6: the automated sweep over
// candidate blackhole communities with per-VP diffing and stability
// re-run.
func BenchmarkSec76BlackholeSweep(b *testing.B) {
	lab, _ := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := lab.BlackholeSweep(lab.W.Registry.All())
		if err != nil {
			b.Fatal(err)
		}
		ind := rep.InducingCommunities()
		b.ReportMetric(float64(len(ind)), "inducing_communities")
		b.ReportMetric(float64(len(rep.AffectedVPs())), "affected_vps")
		logOnce(b, i, attack.RenderSweep(rep))
	}
}

// --- Pipeline scaling benches (PR 1's tentpole) ---

// BenchmarkPipelineFullAnalysis is the committed serial-vs-parallel
// comparison: the per-figure serial path (each analysis rescans the
// dataset on one worker, the pre-pipeline code shape) against the fused
// sharded pipeline at one worker and at GOMAXPROCS workers. Outputs are
// bit-identical across all three (asserted by the core determinism
// tests); only the wall clock differs.
func BenchmarkPipelineFullAnalysis(b *testing.B) {
	lab, ds := fixture(b)
	known := lab.W.Registry.All()
	runAll := func(p *core.Pipeline) {
		p.Table1(ds)
		p.Table2(ds)
		p.Figure4a(ds)
		p.OverallCommunityShare(ds)
		p.ComputeFigure4b(ds)
		pa := p.AnalyzePropagation(ds, known)
		pa.Figure5a()
		p.TransitPropagators(ds)
		p.InferFiltering(ds)
	}
	b.Run("per-figure/workers=1", func(b *testing.B) {
		p := core.NewPipeline(1)
		for i := 0; i < b.N; i++ {
			runAll(p)
		}
	})
	b.Run("fused/workers=1", func(b *testing.B) {
		p := core.NewPipeline(1)
		for i := 0; i < b.N; i++ {
			if a := p.Analyze(ds, known); a.Transit.Propagators == 0 {
				b.Fatal("no propagators")
			}
		}
	})
	b.Run(fmt.Sprintf("fused/workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		p := core.NewPipeline(runtime.GOMAXPROCS(0))
		for i := 0; i < b.N; i++ {
			if a := p.Analyze(ds, known); a.Transit.Propagators == 0 {
				b.Fatal("no propagators")
			}
		}
	})
}

// BenchmarkPipelinePerFigureWorkers scales the individual heavy
// analyses across worker counts.
func BenchmarkPipelinePerFigureWorkers(b *testing.B) {
	lab, ds := fixture(b)
	known := lab.W.Registry.All()
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		p := core.NewPipeline(w)
		b.Run(fmt.Sprintf("table1/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Table1(ds)
			}
		})
		b.Run(fmt.Sprintf("fig5/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.AnalyzePropagation(ds, known)
			}
		})
		b.Run(fmt.Sprintf("fig6/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.InferFiltering(ds)
			}
		})
	}
}

// BenchmarkSimnetEngines compares the delta engine with its rounds
// reference. The toy subbenches announce 80 prefixes over a 100-AS
// mesh; the medium subbenches build and churn a full gen.Medium world
// (~1k ASes, ~5M deliveries) — the committed delta-vs-rounds comparison
// the ISSUE-5 acceptance criterion reads (delta >= 3x rounds on medium;
// see BENCH_pr5.json). Both engines produce bit-identical tap streams
// and RIBs (TestDifferentialEngines), so only the wall clock differs.
func BenchmarkSimnetEngines(b *testing.B) {
	build := func() *topo.Graph {
		g := topo.NewGraph()
		for i := topo.ASN(1); i <= 4; i++ {
			for j := i + 1; j <= 4; j++ {
				g.AddPeering(i, j)
			}
		}
		for i := topo.ASN(10); i < 26; i++ {
			g.AddCustomerProvider(i, 1+(i%4))
			g.AddCustomerProvider(i, 1+((i+1)%4))
		}
		for i := topo.ASN(100); i < 180; i++ {
			g.AddCustomerProvider(i, 10+(i%16))
		}
		return g
	}
	announce := func(b *testing.B, n *simnet.Network) {
		for i := topo.ASN(100); i < 180; i++ {
			p := netip.PrefixFrom(netx.V4(10, byte(i>>8), byte(i), 0), 24)
			if _, err := n.Announce(i, p, bgp.C(uint16(i), 100)); err != nil {
				b.Fatal(err)
			}
		}
	}
	toy := func(oracle bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := simnet.New(build(), nil)
				if oracle {
					n.UseRoundsOracle()
				}
				n.SetWorkers(runtime.GOMAXPROCS(0))
				announce(b, n)
			}
		}
	}
	b.Run("rounds/toy", toy(true))
	b.Run("delta/toy", toy(false))

	medium := func(engine string) func(b *testing.B) {
		return func(b *testing.B) {
			// Normalize the heap so neither engine pays for the other's
			// leftovers (single-iteration builds are GC-sensitive).
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := gen.Medium()
				p.Engine = engine
				p.Workers = runtime.GOMAXPROCS(0)
				w, err := gen.Build(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.RunChurn(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(w.Net.Steps()), "deliveries")
			}
		}
	}
	b.Run("rounds/medium", medium("rounds"))
	b.Run("delta/medium", medium("delta"))
}

// BenchmarkLargeWorldBuild builds and converges the paper-scale presets
// under the delta engine: large (~10k ASes) and internet (~63k ASes,
// the study's April 2018 AS count, degree-skewed), each on one worker
// and on one per CPU — the scaling pair ROADMAP item 2 asks for. One
// benchtime-1x iteration in the CI bench job is the standing proof that
// a full internet-scale world builds and converges on the CI box; at 1x
// the pair shows a direction, not a measured speed-up.
func BenchmarkLargeWorldBuild(b *testing.B) {
	arms := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		arms = append(arms, n)
	}
	for _, scale := range []string{"large", "internet"} {
		for _, workers := range arms {
			b.Run(fmt.Sprintf("%s/workers=%d", scale, workers), func(b *testing.B) {
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, err := gen.Preset(scale)
					if err != nil {
						b.Fatal(err)
					}
					p.Workers = workers
					w, err := gen.Build(p)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := w.RunChurn(); err != nil {
						b.Fatal(err)
					}
					if got := w.Graph.NumASes(); got < 10000 {
						b.Fatalf("ases=%d, want a paper-scale world", got)
					}
					b.ReportMetric(float64(w.Graph.NumASes()), "ases")
					b.ReportMetric(float64(w.Net.Steps()), "deliveries")
					b.ReportMetric(float64(len(w.AllPrefixes())), "prefixes")
				}
			})
		}
	}
}

// --- Streaming detection benches (PR 3's tentpole) ---

// watchFeed builds a synthetic update cycle exercising the watch hot
// path: many prefixes, realistic paths, community churn, and a sprinkle
// of blackhole tags and withdrawals so every detector runs its full
// logic.
func watchFeed(n int) []watch.Event {
	events := make([]watch.Event, n)
	for i := range events {
		pfxIdx := i % 1024
		peer := uint32(100 + i%7)
		mid := uint32(1000 + i%29)
		origin := uint32(10000 + pfxIdx)
		ev := watch.Event{
			PeerAS: peer,
			Prefix: netip.PrefixFrom(netx.V4(10, byte(pfxIdx>>8), byte(pfxIdx), 0), 24),
			ASPath: []uint32{peer, mid, origin},
		}
		switch i % 16 {
		case 13:
			ev.Withdraw, ev.ASPath = true, nil
		case 14:
			ev.Communities = bgp.NewCommunitySet(bgp.C(uint16(origin), 100), bgp.C(uint16(mid), 666))
		default:
			ev.Communities = bgp.NewCommunitySet(bgp.C(uint16(origin), 100), bgp.C(uint16(mid), 1000))
		}
		events[i] = ev
	}
	return events
}

// BenchmarkWatchIngest measures the streaming detection engine's
// sustained ingest throughput with every builtin detector running: one
// op pushes a block of 1024 events through Ingest (the blocking path),
// and the updates/sec metric is the number the wormwatchd sizing claim
// rests on (>= 1M updates/sec; see BENCH_pr3.json).
func BenchmarkWatchIngest(b *testing.B) {
	events := watchFeed(1024)
	e := watch.NewEngine(watch.Config{})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range events {
			e.Ingest(events[j])
		}
	}
	e.Flush()
	b.ReportMetric(float64(b.N*len(events))/b.Elapsed().Seconds(), "updates/sec")
	b.StopTimer()
	if st := e.Stats(); st.Dropped != 0 || st.Alerts == 0 {
		b.Fatalf("stats=%+v", st)
	}
}

// BenchmarkWatchIngestShards scales the same feed across shard counts
// (the alert set is invariant; only wall clock moves).
func BenchmarkWatchIngestShards(b *testing.B) {
	events := watchFeed(1024)
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := watch.NewEngine(watch.Config{Shards: shards})
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range events {
					e.Ingest(events[j])
				}
			}
			e.Flush()
			b.ReportMetric(float64(b.N*len(events))/b.Elapsed().Seconds(), "updates/sec")
		})
	}
}

// BenchmarkWatchScenarioReplay measures the end-to-end detect-what-you-
// attack loop: build a world, run the RTBH attack with a lossless
// engine tap observing every delivery, and score the detectors.
func BenchmarkWatchScenarioReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := watch.EvalScenario("rtbh", nil, watch.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Recall != 1 {
			b.Fatalf("recall=%v", rep.Recall)
		}
		b.ReportMetric(float64(rep.Stats.Ingested), "events")
		logOnce(b, i, watch.RenderEval(rep))
	}
}

// --- Dictionary-inference benches (PR 4's tentpole) ---

// semanticsFeed builds a synthetic observation mix exercising the full
// fold: informational tags, blackhole host routes, prepend evidence,
// steering shapes, private tags — the same population shape as
// watchFeed, shifted to the semantics Observation type.
func semanticsFeed(n int) []semantics.Observation {
	obs := make([]semantics.Observation, n)
	for i := range obs {
		pfxIdx := i % 1024
		peer := uint32(100 + i%7)
		mid := uint32(1000 + i%29)
		origin := uint32(10000 + pfxIdx)
		ob := semantics.Observation{
			PeerAS: peer,
			Prefix: netip.PrefixFrom(netx.V4(10, byte(pfxIdx>>8), byte(pfxIdx), 0), 24),
			ASPath: []uint32{peer, mid, origin},
		}
		switch i % 16 {
		case 13:
			ob.Prefix = netip.PrefixFrom(netx.V4(10, byte(pfxIdx>>8), byte(pfxIdx), 9), 32)
			ob.Communities = bgp.NewCommunitySet(bgp.C(uint16(mid), 666))
		case 14:
			ob.ASPath = []uint32{peer, mid, mid, origin}
			ob.Communities = bgp.NewCommunitySet(bgp.C(uint16(mid), 101))
		default:
			ob.Communities = bgp.NewCommunitySet(bgp.C(uint16(origin), 100), bgp.C(uint16(mid), 1000))
		}
		obs[i] = ob
	}
	return obs
}

// BenchmarkSemanticsIngest measures the dictionary engine's sustained
// fold throughput: one op pushes a block of 1024 observations through
// Ingest, and the obs/sec metric is the number the ISSUE-4 sizing claim
// rests on (>= 1M observations/sec; see BENCH_pr4.json).
func BenchmarkSemanticsIngest(b *testing.B) {
	feed := semanticsFeed(1024)
	e := semantics.NewEngine(semantics.Config{})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range feed {
			e.Ingest(feed[j])
		}
	}
	e.Flush()
	b.ReportMetric(float64(b.N*len(feed))/b.Elapsed().Seconds(), "obs/sec")
	b.StopTimer()
	if snap := e.Snapshot(); snap.Len() == 0 {
		b.Fatal("empty dictionary")
	}
}

// BenchmarkSemanticsIngestWorkers scales the same feed across worker
// counts (the snapshot is invariant; only wall clock moves).
func BenchmarkSemanticsIngestWorkers(b *testing.B) {
	feed := semanticsFeed(1024)
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := semantics.NewEngine(semantics.Config{Workers: workers})
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range feed {
					e.Ingest(feed[j])
				}
			}
			e.Flush()
			b.ReportMetric(float64(b.N*len(feed))/b.Elapsed().Seconds(), "obs/sec")
		})
	}
}

// BenchmarkClassify measures the fused snapshot pass — partial-merge
// plus per-entry classification — over a populated engine. Each op
// ingests one observation to invalidate the version cache, so the
// measured work is a full merge+classify of the dictionary.
func BenchmarkClassify(b *testing.B) {
	feed := semanticsFeed(64 * 1024)
	e := semantics.NewEngine(semantics.Config{})
	defer e.Close()
	for i := range feed {
		e.Ingest(feed[i])
	}
	e.Flush()
	entries := e.Snapshot().Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Ingest(feed[i%len(feed)])
		if e.Snapshot().Len() == 0 {
			b.Fatal("empty dictionary")
		}
	}
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries_classified/sec")
}

// BenchmarkWatchIngestWithSemantics re-runs the watch ingest hot path
// in the full wormwatchd steady state: dictionary mirroring on, and
// the dict-aware detectors consulting a snapshot already trained on
// the same feed (so their lookups mostly hit, as in a warmed daemon).
func BenchmarkWatchIngestWithSemantics(b *testing.B) {
	events := watchFeed(1024)
	sem := semantics.NewEngine(semantics.Config{})
	defer sem.Close()
	holder := &semantics.Holder{}
	// Warm the dictionary exactly as the daemon's heartbeat would.
	trainer := watch.NewEngine(watch.Config{Semantics: sem})
	for j := range events {
		trainer.Ingest(events[j])
	}
	trainer.Close()
	holder.Store(sem.Snapshot())
	e := watch.NewEngine(watch.Config{Semantics: sem, Dict: holder})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range events {
			e.Ingest(events[j])
		}
	}
	e.Flush()
	b.ReportMetric(float64(b.N*len(events))/b.Elapsed().Seconds(), "updates/sec")
}

// --- Ablation benches (engine design choices) ---

// BenchmarkAblationTrieVsLinear compares the FIB's longest-prefix-match
// trie with a naive linear scan.
func BenchmarkAblationTrieVsLinear(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var prefixes []netip.Prefix
	tr := netx.NewTrie[int]()
	for i := 0; i < 5000; i++ {
		p := netip.PrefixFrom(netx.V4(byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0), 8+rng.Intn(17)).Masked()
		if tr.Insert(p, i) {
			prefixes = append(prefixes, p)
		}
	}
	addrs := make([]netip.Addr, 512)
	for i := range addrs {
		addrs[i] = netx.V4(byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Lookup(addrs[i%len(addrs)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := addrs[i%len(addrs)]
			best := netip.Prefix{}
			for _, p := range prefixes {
				if p.Contains(a) && p.Bits() > best.Bits() {
					best = p
				}
			}
		}
	})
}

// BenchmarkAblationTaggerInference compares the paper's conservative
// nearest-observer tagger attribution with naive origin attribution:
// origin attribution systematically inflates distances.
func BenchmarkAblationTaggerInference(b *testing.B) {
	lab, ds := fixture(b)
	b.Run("conservative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pa := core.AnalyzePropagation(ds, lab.W.Registry.All())
			all, _ := pa.Figure5a()
			b.ReportMetric(all.Mean(), "mean_hops")
		}
	})
	b.Run("origin-attribution", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum, n float64
			for _, u := range ds.Announcements() {
				if len(u.Communities) == 0 {
					continue
				}
				path := u.StrippedPath()
				for range u.Communities {
					// Attribute every community to the origin.
					sum += float64(len(path))
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(sum/n, "mean_hops")
			}
		}
	})
}

// BenchmarkAblationCommunitySet compares the sorted-slice CommunitySet
// with a map-based set for the typical small community counts.
func BenchmarkAblationCommunitySet(b *testing.B) {
	vals := make([]bgp.Community, 12)
	for i := range vals {
		vals[i] = bgp.C(uint16(i*37), uint16(i))
	}
	b.Run("sorted-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var s bgp.CommunitySet
			for _, v := range vals {
				s = s.Add(v)
			}
			for _, v := range vals {
				if !s.Has(v) {
					b.Fatal("missing")
				}
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := make(map[bgp.Community]bool, len(vals))
			for _, v := range vals {
				m[v] = true
			}
			for _, v := range vals {
				if !m[v] {
					b.Fatal("missing")
				}
			}
		}
	})
}

// --- Warm-world snapshot benches (PR 7's tentpole) ---

// BenchmarkSnapshotFork measures the copy-on-write fork: one op turns a
// frozen medium world into a fresh mutable Internet — collectors, route
// servers, registry, and tap replay included. Build cost is paid once
// outside the timer; the per-op cost is what every warm sweep cell pays
// instead of a full rebuild.
func BenchmarkSnapshotFork(b *testing.B) {
	p := gen.Medium()
	p.Workers = runtime.GOMAXPROCS(0)
	snap, err := gen.BuildSnapshot(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := snap.Fork(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(w.Graph.NumASes()), "ases")
		}
	}
}

// BenchmarkSweepWarm runs a 10-cell sweep on warm worlds: five
// single-shot scenarios crossed with two community sets, all on one
// (scale, seed) coordinate, so the sweep builds one world and forks it
// nine more times. Heavy world-churning scenarios (blackhole-sweep) are
// deliberately absent: the bench isolates build amortization, the cost
// the snapshot layer removes.
func BenchmarkSweepWarm(b *testing.B) {
	names := []string{
		"rtbh", "steering-localpref", "steering-prepend",
		"route-manipulation", "propagation-distance",
	}
	for _, scale := range []string{"medium", "large"} {
		b.Run(scale+"/warm", func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := scenario.Grid{
					Scenarios:     names,
					Scales:        []string{scale},
					Seeds:         []int64{1},
					CommunitySets: []string{"verified", "likely"},
				}
				rep, err := scenario.Sweep(g, runtime.GOMAXPROCS(0))
				if err != nil {
					b.Fatal(err)
				}
				if rep.Errored > 0 {
					for _, c := range rep.Cells {
						if c.Err != "" {
							b.Fatalf("cell %s errored: %s", c.Scenario, c.Err)
						}
					}
				}
				if rep.SnapshotForks < len(names) {
					b.Fatalf("warm sweep forked %d times, want >= %d", rep.SnapshotForks, len(names))
				}
				b.ReportMetric(float64(rep.Ran), "cells")
				b.ReportMetric(float64(rep.SnapshotBuilds), "builds")
				b.ReportMetric(float64(rep.SnapshotForks), "forks")
			}
		})
	}
}

// --- Observability benches (PR 8's tentpole) ---

// BenchmarkWatchIngestWithMetrics replays the BenchmarkWatchIngest feed
// against an engine with a metrics registry attached. Comparing the two
// updates/sec numbers bounds the observability tax on the hot path; the
// ratchet holds it under 5%.
func BenchmarkWatchIngestWithMetrics(b *testing.B) {
	events := watchFeed(1024)
	e := watch.NewEngine(watch.Config{Metrics: obs.NewRegistry()})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range events {
			e.Ingest(events[j])
		}
	}
	e.Flush()
	b.ReportMetric(float64(b.N*len(events))/b.Elapsed().Seconds(), "updates/sec")
	b.StopTimer()
	if st := e.Stats(); st.Dropped != 0 || st.Alerts == 0 {
		b.Fatalf("stats=%+v", st)
	}
}

// BenchmarkObsCounter measures the registry's per-increment cost — the
// price every instrumented event pays, so it has to stay in the
// nanoseconds.
func BenchmarkObsCounter(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_total", "bench counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatalf("count=%d, want %d", c.Value(), b.N)
	}
}

// --- Serving-path benches (PR 9's tentpole) ---

// servingHandler builds the daemon's HTTP stack (internal/serve) over a
// pre-fed engine pair — the serving-path fixture.
func servingHandler(b *testing.B, events []watch.Event) (http.Handler, *watch.Engine) {
	b.Helper()
	reg := obs.NewRegistry()
	sem := semantics.NewEngine(semantics.Config{Workers: 2, Metrics: reg})
	holder := &semantics.Holder{}
	eng := watch.NewEngine(watch.Config{Semantics: sem, Metrics: reg})
	b.Cleanup(func() { eng.Close(); sem.Close() })
	for _, ev := range events {
		eng.Ingest(ev)
	}
	eng.Flush()
	holder.Store(sem.Snapshot())
	srv := serve.New(serve.Options{Watch: eng, Semantics: sem, Holder: holder, Registry: reg})
	return srv.Handler(), eng
}

func servingGet(b *testing.B, h http.Handler, path string) {
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Errorf("GET %s: status %d", path, rec.Code)
	}
}

// BenchmarkServingQuery measures the query fast path on a quiet engine:
// /alerts and /stats served from the version-keyed render cache. This
// is the gated serving-path number — it bounds the per-request overhead
// (mux, instrumentation, cache hit, response copy) with no contention
// from ingest.
func BenchmarkServingQuery(b *testing.B) {
	h, _ := servingHandler(b, watchFeed(4096))
	paths := []string{"/alerts", "/stats"}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			servingGet(b, h, paths[i%len(paths)])
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// BenchmarkServingUnderIngest measures concurrent query throughput
// while a sustained non-blocking feed hammers the engine — the serving
// QPS number under load, plus the feed's shed rate (the fraction the
// lossy live tap dropped while queries held read locks and renders).
func BenchmarkServingUnderIngest(b *testing.B) {
	events := watchFeed(4096)
	h, eng := servingHandler(b, events)
	stop := make(chan struct{})
	var offered uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			eng.TryIngest(events[i%len(events)])
			offered++
		}
	}()
	before := eng.Stats().Dropped
	paths := []string{"/alerts", "/stats", "/prefix/10.0.0.0/24"}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			servingGet(b, h, paths[i%len(paths)])
			i++
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
	if offered > 0 {
		shed := float64(eng.Stats().Dropped-before) / float64(offered) * 100
		b.ReportMetric(shed, "shed_%")
	}
}
