package core

import (
	"bytes"
	"testing"

	"bgpworms/internal/gen"
)

func buildRIBViews(t *testing.T) (*gen.Internet, []RIBView) {
	t.Helper()
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	var views []RIBView
	for _, c := range w.Collectors {
		var buf bytes.Buffer
		if _, err := c.WriteRIBSnapshotMRT(&buf, gen.BaseTime.AddDate(0, 1, 0)); err != nil {
			t.Fatal(err)
		}
		vs, err := ReadMRTRIB(string(c.Platform), c.Name, &buf)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, vs...)
	}
	return w, views
}

func TestReadMRTRIBRoundTrip(t *testing.T) {
	_, views := buildRIBViews(t)
	if len(views) == 0 {
		t.Fatal("no RIB views")
	}
	for _, v := range views {
		if v.PeerAS == 0 || len(v.Update.ASPath) == 0 {
			t.Fatalf("malformed view: %+v", v)
		}
		if v.Update.Withdraw {
			t.Fatal("RIB views cannot be withdrawals")
		}
	}
}

func TestDatasetFromRIBRunsAnalyses(t *testing.T) {
	w, views := buildRIBViews(t)
	ds := DatasetFromRIB(views)
	if len(ds.Collectors) != len(w.Collectors) {
		t.Fatalf("collectors=%d", len(ds.Collectors))
	}
	// The §4 analyses run unchanged on RIB state.
	a := analyze(ds, w.Registry.All()...)
	rows := a.Table1
	if rows[len(rows)-1].Communities == 0 {
		t.Fatal("no communities in RIB-derived dataset")
	}
	all, _ := a.Prop.Figure5a()
	if all.Len() == 0 {
		t.Fatal("no propagation distances from RIB state")
	}
	if rep := a.Transit; rep.Propagators == 0 {
		t.Fatal("no propagators visible in RIB state")
	}
}

func TestTableEntryCount(t *testing.T) {
	_, views := buildRIBViews(t)
	counts := TableEntryCount(views)
	if len(counts) == 0 {
		t.Fatal("no collectors counted")
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(views) {
		t.Fatalf("count mismatch: %d vs %d", total, len(views))
	}
}

// The cross-check between data sources: every RIB entry must have a
// matching latest update on the same session (the collector's Adj-RIB-In
// is exactly the replay of its update stream).
func TestCompareUpdateVsRIBConsistency(t *testing.T) {
	w, views := buildRIBViews(t)
	ds := FromCollectors(w.Collectors)
	if missing := CompareUpdateVsRIB(ds, views); missing != 0 {
		t.Fatalf("%d RIB entries lack matching updates", missing)
	}
}
