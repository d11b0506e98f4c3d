package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"bgpworms/internal/conc"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
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
	view := func(workers int) []feed.Event {
		merged := newLatestAgg()
		for _, a := range foldChunks(ds.Updates, workers, newLatestAgg,
			func(a *latestAgg, ev *feed.Event, _ []uint32) { a.add(ev) }) {
			merged.merge(a)
		}
		return merged.finalize()
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
