package core

import (
	"bytes"
	"io"
	"testing"

	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
)

// readArchive materializes one collector archive through the one MRT
// decoder, with the metadata the archive itself tells: the collector's
// name and the peer ASes its records name.
func readArchive(t *testing.T, r io.Reader, name string) ([]feed.Event, CollectorMeta) {
	t.Helper()
	var events []feed.Event
	meta := CollectorMeta{Platform: platformOf(name), Name: name, PeerASNs: map[uint32]bool{}}
	if _, err := feed.StreamMRT(r, name, func(ev feed.Event) {
		meta.PeerASNs[ev.PeerAS] = true
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	meta.PeerIPs = len(meta.PeerASNs)
	return events, meta
}

// buildDatasetViaMRT runs the full honest pipeline: synthetic Internet →
// collector archives → MRT byte streams → parsed Dataset. The analysis
// layer only ever sees the wire format.
func buildDatasetViaMRT(t *testing.T) (*gen.Internet, *Dataset) {
	t.Helper()
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{}
	for _, c := range w.Collectors {
		var buf bytes.Buffer
		if _, err := c.WriteUpdatesMRT(&buf); err != nil {
			t.Fatal(err)
		}
		events, meta := readArchive(t, &buf, c.Name)
		// MRT streams do not carry session metadata; splice in the real
		// peer list.
		meta.PeerIPs = len(c.Peers())
		meta.PeerASNs = map[uint32]bool{}
		for _, p := range c.Peers() {
			meta.PeerASNs[uint32(p.AS)] = true
		}
		ds.Updates = append(ds.Updates, events...)
		ds.Collectors = append(ds.Collectors, meta)
	}
	return w, ds
}

func TestE2E_MRTPipelineMatchesDirect(t *testing.T) {
	w, viaMRT := buildDatasetViaMRT(t)
	direct := FromCollectors(w.Collectors)
	if len(viaMRT.Updates) != len(direct.Updates) {
		t.Fatalf("MRT %d vs direct %d updates", len(viaMRT.Updates), len(direct.Updates))
	}
	// Spot-check equality of paths and communities.
	for i := range viaMRT.Updates {
		a, b := viaMRT.Updates[i], direct.Updates[i]
		if a.Prefix != b.Prefix || a.Withdraw != b.Withdraw || a.PeerAS != b.PeerAS {
			t.Fatalf("update %d differs: %+v vs %+v", i, a, b)
		}
		if a.Communities.String() != b.Communities.String() {
			t.Fatalf("update %d communities differ", i)
		}
		if len(a.ASPath) != len(b.ASPath) {
			t.Fatalf("update %d paths differ", i)
		}
	}
}

func TestE2E_HeadlineShapesHold(t *testing.T) {
	w, ds := buildDatasetViaMRT(t)
	a := analyze(ds, w.Registry.All()...)

	// Table 1: all four platforms present, v4 dominates.
	rows := a.Table1
	if len(rows) != 5 {
		t.Fatalf("table1 rows=%d", len(rows))
	}
	total := rows[len(rows)-1]
	if total.Messages == 0 || total.Communities == 0 {
		t.Fatalf("total=%+v", total)
	}
	if total.IPv4Prefixes <= total.IPv6Prefixes {
		t.Fatalf("v4 should dominate: %+v", total)
	}
	if total.Transit+total.Stub != total.ASes {
		t.Fatalf("role split inconsistent: %+v", total)
	}

	// §4.2: the majority of announcements carry communities.
	if share := a.Share; share < 0.5 {
		t.Fatalf("community share=%.2f, want >0.5", share)
	}

	// Table 2: both on-path and off-path community ASes exist.
	t2 := a.Table2
	tot2 := t2[len(t2)-1]
	if tot2.OnPath == 0 || tot2.OffPath == 0 {
		t.Fatalf("table2=%+v", tot2)
	}

	// Fig 5a: communities propagate multiple hops; some beyond 2.
	all, bh := a.Prop.Figure5a()
	if all.Len() == 0 {
		t.Fatal("no on-path distances")
	}
	if all.At(1) >= 0.95 {
		t.Fatal("communities should travel beyond the first hop")
	}
	// Blackhole communities travel shorter distances than communities at
	// large (the Fig 5a separation) — compare medians when we have
	// enough samples.
	if bh.Len() >= 5 {
		if bh.Quantile(0.5) > all.Quantile(0.9) {
			t.Fatalf("blackhole median %.1f implausibly large vs all p90 %.1f", bh.Quantile(0.5), all.Quantile(0.9))
		}
	}

	// §4.3: a nonzero minority of transit ASes propagate foreign
	// communities.
	rep := a.Transit
	if rep.Propagators == 0 || rep.Propagators >= rep.TransitASes {
		t.Fatalf("transit report=%+v", rep)
	}

	// Fig 6: both forwarding and filtering indications appear.
	fi := a.Filter
	s := fi.Summarize(1)
	if s.WithForwardSign == 0 || s.WithFilterSign == 0 {
		t.Fatalf("filter summary=%+v", s)
	}
}

func TestE2E_Figure4Shapes(t *testing.T) {
	_, ds := buildDatasetViaMRT(t)
	a := analyze(ds)
	if fr := a.Fig4a; len(fr) != 4 {
		t.Fatalf("collectors=%d", len(fr))
	}
	f4b := a.Fig4b
	// Multi-community updates exist.
	if f4b.CommunitiesPerUpdate.Quantile(1) < 2 {
		t.Fatal("no multi-community updates")
	}
	// Some updates reference multiple ASes (transitivity signal, §4.2).
	if f4b.ASesPerUpdate.Quantile(1) < 2 {
		t.Fatal("no multi-AS community sets")
	}
}

func TestE2E_Figure5bRelativeDistances(t *testing.T) {
	w, ds := buildDatasetViaMRT(t)
	m := analyze(ds, w.Registry.All()...).Prop.Figure5b(3, 10)
	if len(m) == 0 {
		t.Fatal("no path-length groups")
	}
	// A significant share of communities travel more than half the path.
	anyFar := false
	for _, e := range m {
		if 1-e.At(0.5) > 0.2 {
			anyFar = true
		}
	}
	if !anyFar {
		t.Fatal("no communities travel >50% of their path")
	}
}
