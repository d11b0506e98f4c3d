package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"weak"

	"bgpworms/internal/bgp"
	"bgpworms/internal/conc"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/netx"
)

// renderAll flattens every analysis output into one golden string so a
// single comparison covers Tables 1/2, Figures 4a/4b/5a/5b/5c, the
// transit report, and the Figure 6 summary.
func renderAll(a *Analysis) string {
	all, bh := a.Prop.Figure5a()
	off, on := a.Prop.Figure5c(10)
	return RenderTable1(a.Table1) + RenderTable2(a.Table2) + RenderFigure4a(a.Fig4a) +
		fmt.Sprintf("share=%.9f\n", a.Share) + RenderFigure4b(a.Fig4b) +
		RenderFigure5a(all, bh) + RenderFigure5b(a.Prop.Figure5b(3, 10)) +
		RenderFigure5c(off, on) +
		fmt.Sprintf("transit=%d/%d\n", a.Transit.Propagators, a.Transit.TransitASes) +
		RenderFilterSummary(a.Filter.Summarize(2))
}

// TestPipelineDeterminismAcrossWorkers is the tentpole gate: serial
// (workers=1) and parallel (workers=8) runs must produce bit-identical
// Fig. 4/5/6 and Tables 1/2 output on a generated internet.
func TestPipelineDeterminismAcrossWorkers(t *testing.T) {
	_, ds := buildDatasetViaMRT(t)
	serial := renderAll(NewPipeline(1).Analyze(ds, nil))
	if serial == "" {
		t.Fatal("empty analysis output")
	}
	for _, w := range []int{2, 8} {
		if got := renderAll(NewPipeline(w).Analyze(ds, nil)); got != serial {
			t.Fatalf("workers=%d output diverges from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s", w, serial, w, got)
		}
	}
}

// TestLatestRoutesChunkMergeIdentical asserts the concurrent view is the
// exact same slice — order included — for any worker count, and so is
// the Figure 3 point read off it (its table-entry count among them).
func TestLatestRoutesChunkMergeIdentical(t *testing.T) {
	_, ds := buildDatasetViaMRT(t)
	view := func(workers int) []*feed.Event {
		p := NewPipeline(workers)
		return p.fold(ds.Updates, IsBlackholeClassifier(nil)).latest.finalize(workers)
	}
	serial, serialFig3 := view(1), NewPipeline(1).Analyze(ds, nil).Fig3
	if len(serial) == 0 || serialFig3.TableEntries != len(serial) {
		t.Fatalf("latest-route view of %d routes, Figure 3 counts %d", len(serial), serialFig3.TableEntries)
	}
	for _, w := range []int{2, 8} {
		if got := view(w); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d latest-route view diverges (len %d vs %d)", w, len(got), len(serial))
		}
		if got := NewPipeline(w).Analyze(ds, nil).Fig3; got != serialFig3 {
			t.Fatalf("workers=%d Figure 3 point %+v diverges from serial %+v", w, got, serialFig3)
		}
	}
}

// splitCollectorDataset is a hand-built stream in which collector RIS-a
// speaks in two runs with RV-b between them: the second run replaces a
// route of the first, withdraws another, and adds a slot of its own.
func splitCollectorDataset() *Dataset {
	pfxC := netx.MustPrefix("192.0.2.0/24")
	ds := &Dataset{Collectors: []CollectorMeta{
		{Platform: "RIS", Name: "RIS-a", PeerIPs: 2, PeerASNs: map[uint32]bool{5: true, 7: true}},
		{Platform: "RV", Name: "RV-b", PeerIPs: 1, PeerASNs: map[uint32]bool{9: true}},
	}}
	ds.Updates = []feed.Event{
		upd("RIS-a", 7, pfxA, []uint32{7, 3, 2, 1}, bgp.C(2, 100)),
		upd("RIS-a", 5, pfxA, []uint32{5, 3, 2, 1}),
		upd("RIS-a", 5, pfxB, []uint32{5, 4, 1}, bgp.C(4, 666)),
		upd("RIS-a", 7, pfxC, []uint32{7, 4, 1}, bgp.C(4, 200)),
		upd("RV-b", 9, pfxA, []uint32{9, 3, 2, 1}, bgp.C(2, 100), bgp.C(3, 300)),
		upd("RV-b", 9, pfxB, []uint32{9, 6, 4, 1}),
		upd("RIS-a", 5, pfxA, []uint32{5, 3, 3, 2, 1}, bgp.C(3, 100)),
		{Source: "RIS-a", PeerAS: 5, Time: t0, Prefix: pfxB, Withdraw: true},
		upd("RIS-a", 5, pfxC, []uint32{5, 4, 1}, bgp.C(4, 200)),
	}
	return ds
}

// TestAnalyzeMatchesSerialScan holds the per-collector fold to one
// Accumulator folding the whole stream in order: rendered output, the
// Figure 3 point and the latest-route view, order included, at any
// worker count. The split dataset's second RIS-a run must merge into
// the first run's view, not replace it.
func TestAnalyzeMatchesSerialScan(t *testing.T) {
	single := splitCollectorDataset()
	single.Updates = single.Updates[:4]
	single.Collectors = single.Collectors[:1]
	for _, tc := range []struct {
		name string
		ds   *Dataset
	}{{"split", splitCollectorDataset()}, {"single", single}} {
		name, ds := tc.name, tc.ds
		cls := IsBlackholeClassifier(nil)
		serial := newAccumulatorFor(cls)
		for i := range ds.Updates {
			serial.Add(&ds.Updates[i])
		}
		for _, c := range ds.Collectors {
			serial.AddCollector(c)
		}
		wantView, want := serial.latest.finalize(1), serial.Analysis(NewPipeline(1))
		for _, w := range []int{1, 2, 8} {
			p := NewPipeline(w)
			got := p.Analyze(ds, nil)
			if renderAll(got) != renderAll(want) || got.Fig3 != want.Fig3 {
				t.Fatalf("%s, workers=%d: Analyze diverges from the serial scan:\n--- serial %+v ---\n%s\n--- got %+v ---\n%s",
					name, w, want.Fig3, renderAll(want), got.Fig3, renderAll(got))
			}
			if view := p.fold(ds.Updates, cls).latest.finalize(w); !reflect.DeepEqual(view, wantView) {
				t.Fatalf("%s, workers=%d: latest-route view of %d routes, serial %d, or another order", name, w, len(view), len(wantView))
			}
		}
	}
}

// TestAccumulatorCopiesTheLatestRoute: the latest-route view keeps a
// copy of each event it is handed, not the caller's pointer, so a
// producer may build every event in one value, as gen.Archives.Each
// does. Folding small seed 1's dataset through one event that is
// overwritten after every Add gives exactly what Analyze gives.
func TestAccumulatorCopiesTheLatestRoute(t *testing.T) {
	w, err := gen.Build(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	ds := FromCollectors(w.Collectors)
	starts := make([]int, len(w.Collectors)+1)
	for i, c := range w.Collectors {
		starts[i+1] = starts[i] + len(c.Observations())
	}
	p := NewPipeline(0)
	got := p.AnalyzeArchives(w.Collectors, func(c int, add func(*feed.Event)) {
		var ev feed.Event
		for _, u := range ds.Updates[starts[c]:starts[c+1]] {
			ev = u
			add(&ev)
			ev = feed.Event{Source: u.Source, Withdraw: true}
		}
	}, w.Registry.All())
	want := p.Analyze(ds, w.Registry.All())
	if want.Fig3.TableEntries == 0 {
		t.Fatal("an empty latest-route view: the check needs routes")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("folding through one reused event gives Figure 3 point %+v, Analyze %+v, or other results", got.Fig3, want.Fig3)
	}
}

// TestFromCollectorsMatchesSerialConversion: converting each collector
// into its own segment concurrently gives the dataset that converting
// every observation in turn does.
func TestFromCollectorsMatchesSerialConversion(t *testing.T) {
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	want := &Dataset{}
	for _, c := range w.Collectors {
		meta := CollectorMeta{Platform: string(c.Platform), Name: c.Name, PeerASNs: map[uint32]bool{}}
		for _, p := range c.Peers() {
			meta.PeerIPs++
			meta.PeerASNs[uint32(p.AS)] = true
		}
		want.Collectors = append(want.Collectors, meta)
		var at time.Time
		record := feed.Tap(c.Name, func(ev feed.Event) {
			ev.Time = at
			want.Updates = append(want.Updates, ev)
		})
		for _, ob := range c.Observations() {
			at = ob.Time()
			record(ob.PeerAS, c.ASN, c.Prefix(ob), c.Route(ob))
		}
	}
	if len(want.Collectors) < 2 || len(want.Updates) == 0 {
		t.Fatalf("%d collectors recorded %d updates; the comparison needs several of each", len(want.Collectors), len(want.Updates))
	}
	if got := FromCollectors(w.Collectors); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromCollectors gave %d updates from %d collectors, the serial conversion %d from %d, or other records",
			len(got.Updates), len(got.Collectors), len(want.Updates), len(want.Collectors))
	}
}

// TestDatasetReleasesWorld: a Dataset and the blackhole registry keep
// nothing of the world they were read from alive, so a caller that holds
// only them lets the garbage collector free the world's network, routers
// and route arena before Analyze.
func TestDatasetReleasesWorld(t *testing.T) {
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	net := weak.Make(w.Net)
	ds := FromCollectors(w.Collectors)
	reg := w.Registry.All()
	w = nil
	runtime.GC()
	if net.Value() != nil {
		t.Fatal("the world's network is still reachable from the Dataset or the registry")
	}
	if len(ds.Updates) == 0 || len(reg) == 0 {
		t.Fatalf("%d updates, %d registry communities: the check needs both", len(ds.Updates), len(reg))
	}
	runtime.KeepAlive(ds)
	runtime.KeepAlive(reg)
}

// TestCollectorsOutliveNetwork: a world's collectors keep nothing of its
// network alive, only the route arena their observations resolve
// through, so a world's routers can be dropped before its archives are
// copied.
// The Dataset copied after the network is collected equals the one
// copied while the world was whole.
func TestCollectorsOutliveNetwork(t *testing.T) {
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	whole := FromCollectors(w.Collectors)
	cs := w.Collectors
	net := weak.Make(w.Net)
	w = nil
	runtime.GC()
	if net.Value() != nil {
		t.Fatal("the world's network is still reachable from its collectors")
	}
	ds := FromCollectors(cs)
	if len(ds.Updates) == 0 {
		t.Fatal("no updates: the check needs some")
	}
	if !reflect.DeepEqual(ds.Updates, whole.Updates) {
		t.Error("the updates copied after the network was collected differ from the whole world's")
	}
	if !reflect.DeepEqual(ds.Collectors, whole.Collectors) {
		t.Errorf("collectors %+v after the network was collected, %+v before", ds.Collectors, whole.Collectors)
	}
}

// TestStreamingMatchesMaterialized runs the same MRT archives through
// a materialized reference — every archive decoded whole with
// feed.StreamMRT and concatenated in sorted file-name order, then
// Analyze — and through the streaming accumulator, and demands
// identical output.
func TestStreamingMatchesMaterialized(t *testing.T) {
	world, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := world.RunChurn(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range world.Collectors {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("updates.%s.mrt", c.Name)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteUpdatesMRT(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	files, err := filepath.Glob(filepath.Join(dir, "updates.*.mrt"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	ds := &Dataset{}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		events, meta := readArchive(t, f, collectorNameFromFile(name))
		f.Close()
		ds.Updates = append(ds.Updates, events...)
		ds.Collectors = append(ds.Collectors, meta)
	}
	if len(ds.Updates) == 0 {
		t.Fatal("no updates loaded")
	}
	known := world.Registry.All()
	for _, workers := range []int{1, 4} {
		p := NewPipeline(workers)
		str, err := p.StreamMRTDir(dir, known)
		if err != nil {
			t.Fatal(err)
		}
		got, want := renderAll(str), renderAll(p.Analyze(ds, known))
		if got != want {
			t.Fatalf("workers=%d streaming output diverges:\n--- materialized ---\n%s\n--- streaming ---\n%s", workers, want, got)
		}
	}
}

// TestTotalRowCoversMetadataLessPlatforms guards a sharding regression:
// updates whose platform has no CollectorMeta entry (possible via the
// exported Dataset fields) get no per-platform row, but must still count
// in the Total row, as the pre-pipeline full-scan code did.
func TestTotalRowCoversMetadataLessPlatforms(t *testing.T) {
	ds := &Dataset{}
	ds.Updates = []feed.Event{{
		Source: "GHOST-g0", PeerAS: 5,
		Prefix: pfxA, ASPath: []uint32{5, 1},
	}}
	rows := analyze(ds).Table1
	total := rows[len(rows)-1]
	if total.Source != "Total" || total.Messages != 1 || total.IPv4Prefixes != 1 || total.ASes != 2 {
		t.Fatalf("total row dropped metadata-less platform: %+v", total)
	}
}

// TestChunkRanges pins the chunking contract: full cover, no overlap,
// bounded count.
func TestChunkRanges(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{0, 4}, {1, 4}, {7, 3}, {100, 8}, {5, 1}, {3, 0}} {
		rs := conc.Chunks(tc.n, tc.w)
		covered := 0
		prev := 0
		for _, r := range rs {
			if r[0] != prev {
				t.Fatalf("n=%d w=%d: gap at %d", tc.n, tc.w, r[0])
			}
			if r[1] <= r[0] {
				t.Fatalf("n=%d w=%d: empty range %v", tc.n, tc.w, r)
			}
			covered += r[1] - r[0]
			prev = r[1]
		}
		if covered != tc.n {
			t.Fatalf("n=%d w=%d: covered %d", tc.n, tc.w, covered)
		}
		if tc.w > 0 && len(rs) > tc.w && tc.n >= tc.w {
			t.Fatalf("n=%d w=%d: %d ranges", tc.n, tc.w, len(rs))
		}
	}
}
