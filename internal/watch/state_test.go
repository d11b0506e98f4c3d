package watch_test

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/core"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/watch"
)

// churnEvents is the deterministic churn feed as one event list — the
// records core folds, collector by collector in recorded order — so
// tests can split the stream at an arbitrary cut point.
func churnEvents(t testing.TB) []feed.Event {
	t.Helper()
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	events := core.FromCollectors(w.Collectors).Updates
	if len(events) < 100 {
		t.Fatalf("churn feed too small to split: %d events", len(events))
	}
	return events
}

func mustPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func alertsJSON(t testing.TB, e *watch.Engine) []byte {
	t.Helper()
	b, err := json.Marshal(e.Alerts())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExportRestoreRoundTrip is the durability equivalence proof at the
// engine level: run a feed to completion in one engine; run the same
// feed split at an arbitrary cut through export → restore → the
// remaining events; the final alert sets and counters must be
// byte-identical. The checkpoint file's encoding of the exported state
// is durable's to test (TestCheckpointCodecRoundTrip).
func TestExportRestoreRoundTrip(t *testing.T) {
	events := churnEvents(t)
	cut := len(events) / 3

	// Uninterrupted reference run.
	ref := watch.NewEngine(watch.Config{Shards: 4})
	for _, ev := range events {
		ref.Ingest(ev)
	}
	ref.Flush()
	wantAlerts := alertsJSON(t, ref)
	wantStats := ref.Stats()
	ref.Close()

	// First life: ingest up to the cut, export, "crash".
	first := watch.NewEngine(watch.Config{Shards: 4})
	for _, ev := range events[:cut] {
		first.Ingest(ev)
	}
	st := first.ExportState()
	first.Close()
	if st.Seq != uint64(cut) {
		t.Fatalf("export seq = %d, want %d", st.Seq, cut)
	}

	// Second life: restore with a different shard count (state is
	// shard-layout independent), then the rest of the feed.
	second := watch.NewEngine(watch.Config{Shards: 7})
	defer second.Close()
	if err := second.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[cut:] {
		second.Ingest(ev)
	}
	second.Flush()

	if got := alertsJSON(t, second); !bytes.Equal(got, wantAlerts) {
		t.Fatalf("restored run alert set differs from uninterrupted run:\nwant %d bytes\ngot  %d bytes", len(wantAlerts), len(got))
	}
	gotStats := second.Stats()
	if gotStats.Ingested != wantStats.Ingested || gotStats.Alerts != wantStats.Alerts ||
		gotStats.TrackedPrefixes != wantStats.TrackedPrefixes {
		t.Fatalf("restored stats differ: got %+v want %+v", gotStats, wantStats)
	}
}

// TestExportStateDeterministic pins that two exports of the same
// quiesced engine state are byte-identical — snapshot files must not
// depend on map iteration order.
func TestExportStateDeterministic(t *testing.T) {
	events := churnEvents(t)
	e := watch.NewEngine(watch.Config{Shards: 4})
	defer e.Close()
	for _, ev := range events {
		e.Ingest(ev)
	}
	a, err := json.Marshal(e.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(e.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("ExportState is not byte-stable across calls")
	}
}

// TestExportStateSharesNoRing pins that an exported State shares no
// mutable memory with the engine, the property the durable store relies
// on when it encodes a checkpoint outside its ingest fence: after the
// export, two full windows of new events for the same prefixes
// overwrite every ring slot and release every path and community-set
// id the export names, and the shard reuses each freed id for a new
// value; the export must still read as it did when taken. The windows
// are contiguous in their rings at export time, the case an export that
// aliased the ring would get wrong. durable's
// TestCheckpointOfAnExportOutlivesIdReuse holds the checkpoint bytes to
// the same.
func TestExportStateSharesNoRing(t *testing.T) {
	const window = 4
	e := watch.NewEngine(watch.Config{Shards: 2, WindowEvents: window})
	defer e.Close()
	prefixes := []netip.Prefix{mustPrefix(t, "10.0.0.0/24"), mustPrefix(t, "10.0.1.0/24"), mustPrefix(t, "2001:db8::/48")}
	ingest := func(round, n int) {
		for i := 0; i < n; i++ {
			for _, p := range prefixes {
				peer := uint32(65000 + 10*round + i)
				e.Ingest(feed.Event{Prefix: p, PeerAS: peer, ASPath: []uint32{peer, 3320},
					Communities: bgp.NewCommunitySet(bgp.C(3320, uint16(peer)))})
			}
		}
		e.Flush()
	}
	ingest(0, window/2)
	st := e.ExportState()
	want, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Prefixes) != len(prefixes) {
		t.Fatalf("export holds %d windows, want %d", len(st.Prefixes), len(prefixes))
	}
	ingest(1, window)
	ingest(2, window)
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ingest after ExportState rewrote the export:\nat export: %s\nnow:       %s", want, got)
	}
}

// TestRestoreStateGuards pins the fresh-engine-only contract.
func TestRestoreStateGuards(t *testing.T) {
	e := watch.NewEngine(watch.Config{Shards: 1})
	defer e.Close()
	e.Ingest(feed.Event{Prefix: mustPrefix(t, "10.0.0.0/24"), PeerAS: 65001})
	if err := e.RestoreState(&watch.State{Seq: 10}); err == nil {
		t.Fatal("RestoreState accepted an engine that already ingested")
	}
	fresh := watch.NewEngine(watch.Config{Shards: 1})
	defer fresh.Close()
	if err := fresh.RestoreState(nil); err != nil {
		t.Fatalf("nil restore: %v", err)
	}
}

// TestProvidedSeq pins the pre-assigned sequence path: events carrying
// their own Seq keep it, the engine clock follows, and interleaved
// zero-Seq events slot in after.
func TestProvidedSeq(t *testing.T) {
	e := watch.NewEngine(watch.Config{Shards: 1})
	defer e.Close()
	p := mustPrefix(t, "10.1.0.0/24")
	e.Ingest(feed.Event{Seq: 41, Prefix: p, PeerAS: 65001, ASPath: []uint32{65001}})
	e.Ingest(feed.Event{Prefix: p, PeerAS: 65001, ASPath: []uint32{65001}})
	e.Flush()
	info, ok := e.PrefixInfo(p)
	if !ok {
		t.Fatal("prefix not tracked")
	}
	if info.LastSeq != 42 {
		t.Fatalf("zero-Seq event after Seq=41 got seq %d, want 42", info.LastSeq)
	}
}
