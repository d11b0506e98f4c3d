package semantics_test

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/semantics"
)

// synthObs builds a deterministic observation stream exercising every
// evidence dimension: on/off path, host routes, prepending, fan-out.
func synthObs(n int) []feed.Event {
	out := make([]feed.Event, 0, n)
	for i := 0; i < n; i++ {
		asn := uint16(65000 + i%4)
		path := []uint32{uint32(65100 + i%3), uint32(asn), uint32(7000 + i%5)}
		if i%7 == 0 {
			path = []uint32{uint32(65100 + i%3), uint32(asn), uint32(asn), uint32(7000 + i%5)}
		}
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i % 11), byte(i % 200), 0}), 24)
		if i%13 == 0 {
			p = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i % 11), byte(i % 200), 1}), 32)
		}
		out = append(out, feed.Event{
			PeerAS: uint32(65100 + i%3),
			Prefix: p,
			ASPath: path,
			Communities: bgp.NewCommunitySet(
				bgp.C(asn, uint16(i%9)),
				bgp.C(65000+uint16(i%2), 666),
			),
		})
	}
	return out
}

func snapshotJSON(t testing.TB, e *semantics.Engine) []byte {
	t.Helper()
	b, err := json.Marshal(e.Snapshot().Entries())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSemanticsExportRestoreRoundTrip mirrors the watch-engine proof:
// an export → JSON → restore → remainder run must end with the same
// dictionary as an uninterrupted run.
func TestSemanticsExportRestoreRoundTrip(t *testing.T) {
	obs := synthObs(5000)
	cut := len(obs) / 3

	ref := semantics.NewEngine(semantics.Config{})
	for _, ob := range obs {
		ref.Ingest(ob)
	}
	want := snapshotJSON(t, ref)
	ref.Close()

	first := semantics.NewEngine(semantics.Config{})
	for _, ob := range obs[:cut] {
		first.Ingest(ob)
	}
	st := first.ExportState()
	first.Close()

	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded semantics.State
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}

	second := semantics.NewEngine(semantics.Config{})
	defer second.Close()
	if err := second.RestoreState(&decoded); err != nil {
		t.Fatal(err)
	}
	for _, ob := range obs[cut:] {
		second.Ingest(ob)
	}
	if got := snapshotJSON(t, second); !bytes.Equal(got, want) {
		t.Fatalf("restored dictionary differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSemanticsExportDeterministic pins byte-stable exports.
func TestSemanticsExportDeterministic(t *testing.T) {
	e := semantics.NewEngine(semantics.Config{})
	defer e.Close()
	for _, ob := range synthObs(2000) {
		e.Ingest(ob)
	}
	a, _ := json.Marshal(e.ExportState())
	b, _ := json.Marshal(e.ExportState())
	if !bytes.Equal(a, b) {
		t.Fatal("ExportState is not byte-stable across calls")
	}
}

// TestSemanticsRestoreGuard pins the fresh-engine-only contract.
func TestSemanticsRestoreGuard(t *testing.T) {
	e := semantics.NewEngine(semantics.Config{})
	defer e.Close()
	e.Ingest(synthObs(1)[0])
	if err := e.RestoreState(&semantics.State{Seq: 5}); err == nil {
		t.Fatal("RestoreState accepted an engine that already ingested")
	}
}

// TestMergeEntriesMatchesSingleRun splits a stream by prefix shard (the
// frontend's scatter-gather shape), infers per-shard dictionaries, and
// checks the merged entries against a single-process run: every counter
// field, bound, and the re-derived class must match exactly; Peers may
// only exceed (distinct counts do not add across shards).
func TestMergeEntriesMatchesSingleRun(t *testing.T) {
	obs := synthObs(5000)

	single := semantics.NewEngine(semantics.Config{})
	for _, ob := range obs {
		single.Ingest(ob)
	}
	whole := single.Snapshot()
	want := whole.Entries()
	single.Close()

	const shards = 3
	parts := make([][]*semantics.Entry, shards)
	var observations uint64
	for s := 0; s < shards; s++ {
		e := semantics.NewEngine(semantics.Config{})
		for i, ob := range obs {
			if int(ob.Prefix.Addr().As4()[2])%shards == s {
				o := ob
				o.Seq = uint64(i + 1)
				e.Ingest(o)
			}
		}
		snap := e.Snapshot()
		parts[s], observations = snap.Entries(), observations+snap.Observations
		e.Close()
	}
	merged := semantics.MergeEntries(observations, parts...)
	if merged.Observations != whole.Observations || merged.Len() != whole.Len() || len(merged.ASNs()) != len(whole.ASNs()) {
		t.Fatalf("merged snapshot holds %d observations, %d entries, %d ASes; single run %d, %d, %d",
			merged.Observations, merged.Len(), len(merged.ASNs()), whole.Observations, whole.Len(), len(whole.ASNs()))
	}
	got := merged.Entries()

	if len(got) != len(want) {
		t.Fatalf("merged %d entries, single run has %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Community != g.Community {
			t.Fatalf("entry %d: community %s vs %s", i, w.Name, g.Name)
		}
		if g.Class != w.Class || g.Count != w.Count || g.OnPath != w.OnPath ||
			g.OffPath != w.OffPath || g.AtOrigin != w.AtOrigin || g.HostRoute != w.HostRoute ||
			g.Prepended != w.Prepended || g.MaxTravel != w.MaxTravel || g.Prefixes != w.Prefixes {
			t.Fatalf("entry %s merged mismatch:\nwant %+v\ngot  %+v", w.Name, w, g)
		}
		if g.Peers < w.Peers {
			t.Fatalf("entry %s merged peers %d < single-run %d", w.Name, g.Peers, w.Peers)
		}
	}
}
