package semantics_test

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestMergeMatchesSingleRun splits a stream by prefix over 1, 2 and 3
// shards (the fleet's shape), folds each shard's slice in an engine of
// its own, and merges the shards' exports after a JSON round trip: every
// entry's JSON must be the single run's, Peers included. From two shards
// on, some community is seen from one peer in more than one shard, so
// adding the shards' Peers counts would overstate it.
func TestMergeMatchesSingleRun(t *testing.T) {
	obs := synthObs(5000)

	single := semantics.NewEngine(semantics.Config{})
	for _, ob := range obs {
		single.Ingest(ob)
	}
	whole := single.Snapshot()
	want := whole.Entries()
	single.Close()

	for shards := 1; shards <= 3; shards++ {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			parts := make([][]semantics.Export, shards)
			var observations uint64
			summed := make(map[bgp.Community]int)
			for s := range shards {
				e := semantics.NewEngine(semantics.Config{})
				for i, ob := range obs {
					if int(ob.Prefix.Addr().As4()[1])%shards == s {
						o := ob
						o.Seq = uint64(i + 1)
						e.Ingest(o)
					}
				}
				snap := e.Snapshot()
				e.Close()
				b, err := json.Marshal(snap.Exports())
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(b, &parts[s]); err != nil {
					t.Fatal(err)
				}
				observations += snap.Observations
				for _, en := range snap.Entries() {
					summed[en.Community] += en.Peers
				}
			}
			merged := semantics.Merge(observations, parts...)
			if merged.Observations != whole.Observations || len(merged.ASNs()) != len(whole.ASNs()) {
				t.Fatalf("merged snapshot holds %d observations, %d ASes; single run %d, %d",
					merged.Observations, len(merged.ASNs()), whole.Observations, len(whole.ASNs()))
			}
			got := merged.Entries()
			if len(got) != len(want) {
				t.Fatalf("merged %d entries, single run has %d", len(got), len(want))
			}
			overstated := false
			for i := range want {
				g, err := json.Marshal(got[i])
				if err != nil {
					t.Fatal(err)
				}
				w, _ := json.Marshal(want[i])
				if !bytes.Equal(g, w) {
					t.Fatalf("entry %d merged mismatch:\nwant %s\ngot  %s", i, w, g)
				}
				overstated = overstated || summed[want[i].Community] > want[i].Peers
			}
			if shards > 1 && !overstated {
				t.Fatal("no community is seen from one peer in two shards — Peers equality is vacuous")
			}
		})
	}
}
