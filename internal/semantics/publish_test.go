package semantics

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
)

// hotPrefix, hotPeer and hotCommunity make the pair the publication test
// deals to more than one producer on both sides of a restore.
var (
	hotPrefix    = netx.MustPrefix("192.0.2.0/24")
	hotPeer      = uint32(64999)
	hotCommunity = bgp.C(3, 7)
)

// pairStream is a seeded stream over a small universe, so that pairs
// repeat across partials and cuts: 24 prefixes (host routes and IPv6
// among them), 6 peers, 4 defining ASes, withdrawals, and community lists
// that are not always a normalized set — unsorted, with duplicates.
// Every 37th event carries the hot pair.
func pairStream(rng *rand.Rand, n int) []feed.Event {
	prefixes := make([]netip.Prefix, 0, 24)
	for i := 0; i < 20; i++ {
		bits := 24
		if i%5 == 0 {
			bits = 32
		}
		prefixes = append(prefixes, netip.PrefixFrom(netx.V4(10, 0, byte(i), 0), bits).Masked())
	}
	prefixes = append(prefixes, netx.MustPrefix("2001:db8::/48"), netx.MustPrefix("2001:db8:1::/48"),
		netx.MustPrefix("10.0.3.0/25"), netx.MustPrefix("10.0.3.0/26"))
	out := make([]feed.Event, 0, n)
	for i := 0; i < n; i++ {
		ev := feed.Event{
			Seq:    uint64(i + 1),
			Time:   feed.LogicalTime(0).Add(time.Duration(rng.Intn(1000)) * time.Millisecond * time.Duration(i+1)),
			PeerAS: uint32(100 + rng.Intn(6)),
			Prefix: prefixes[rng.Intn(len(prefixes))],
		}
		switch {
		case i%37 == 0:
			ev.Prefix, ev.PeerAS = hotPrefix, hotPeer
			ev.ASPath = []uint32{hotPeer, 3}
			ev.Communities = bgp.NewCommunitySet(hotCommunity)
		case rng.Intn(10) == 0:
			ev.Withdraw = true
		default:
			for h := 1 + rng.Intn(4); h > 0; h-- {
				as := uint32(1 + rng.Intn(5))
				ev.ASPath = append(ev.ASPath, as)
				if rng.Intn(4) == 0 {
					ev.ASPath = append(ev.ASPath, as)
				}
			}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				c := bgp.C(uint16(1+rng.Intn(4)), uint16(rng.Intn(6)))
				if rng.Intn(20) == 0 {
					c = bgp.C(uint16(1+rng.Intn(4)), 666)
				}
				ev.Communities = append(ev.Communities, c)
			}
			if rng.Intn(3) != 0 {
				ev.Communities = bgp.NewCommunitySet(ev.Communities...)
			}
		}
		out = append(out, ev)
	}
	return out
}

// fanout is the test's own account of the distinct pairs in a stream,
// kept in sets and sorted the way State exports them.
func fanout(stream []feed.Event) (peers map[bgp.Community][]uint32, prefixes map[bgp.Community][]netip.Prefix) {
	peerSet := make(map[bgp.Community]map[uint32]bool)
	prefixSet := make(map[bgp.Community]map[netip.Prefix]bool)
	for _, ev := range stream {
		for _, c := range ev.Communities {
			if peerSet[c] == nil {
				peerSet[c], prefixSet[c] = make(map[uint32]bool), make(map[netip.Prefix]bool)
			}
			peerSet[c][ev.PeerAS] = true
			prefixSet[c][ev.Prefix] = true
		}
	}
	peers, prefixes = make(map[bgp.Community][]uint32), make(map[bgp.Community][]netip.Prefix)
	for c := range peerSet {
		peers[c] = slices.Sorted(maps.Keys(peerSet[c]))
		prefixes[c] = slices.SortedFunc(maps.Keys(prefixSet[c]), netx.ComparePrefix)
	}
	return peers, prefixes
}

// TestIncrementalPublicationEqualsFreshMerge: snapshots that drain and
// republish only what changed, taken at random cuts with exports in
// between and a restore mid-stream, publish what one fresh merge of the
// same prefix of the stream publishes. Each stream is dealt in random
// runs over 1, 3 or 8 partials and the engine's own (Ingest), so the
// hot pair lands in two producers before the restore and again after
// it, on top of the restored state. The pair fan-out is also held to a
// set-based count of the stream. Event.Communities is not relied on to
// be a normalized set: the stream carries unsorted lists with
// duplicates.
func TestIncrementalPublicationEqualsFreshMerge(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("partials=%d/seed=%d", workers, seed), func(t *testing.T) {
				checkIncrementalPublication(t, workers, seed)
			})
		}
	}
}

func checkIncrementalPublication(t *testing.T, workers int, seed int64) {
	rng := rand.New(rand.NewSource(seed*10 + int64(workers)))
	stream := pairStream(rng, 3000)
	cuts := []int{len(stream)}
	for len(cuts) < 7 {
		cuts = append(cuts, 1+rng.Intn(len(stream)-1))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	restoreAfter := cuts[len(cuts)/2]

	e := NewEngine(Config{})
	defer func() { e.Close() }()
	partials := func(e *Engine) []*Partial {
		ps := make([]*Partial, workers)
		for i := range ps {
			ps[i] = e.NewPartial()
		}
		return ps
	}
	ps := partials(e)
	hot := [2]map[int]bool{{}, {}} // producers of the hot pair, before and after the restore
	phase := 0
	at := 0
	for _, cut := range cuts {
		for at < cut {
			run := stream[at:min(cut, at+1+rng.Intn(40))]
			w := rng.Intn(workers + 1)
			if w == workers {
				for _, ev := range run {
					e.Ingest(ev)
				}
			} else {
				ps[w].Fold(run)
			}
			for _, ev := range run {
				if ev.Prefix == hotPrefix {
					hot[phase][w] = true
				}
			}
			at += len(run)
		}
		checkCut(t, e, stream[:cut], rng.Intn(2) == 0)
		if cut == restoreAfter {
			blob, err := json.Marshal(e.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			var st State
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			e.Close()
			e = NewEngine(Config{})
			if err := e.RestoreState(&st); err != nil {
				t.Fatal(err)
			}
			ps, phase = partials(e), 1
		}
	}
	if len(hot[0]) < 2 || len(hot[1]) < 2 {
		t.Fatalf("the hot pair reached producers %v before the restore and %v after; want two each", hot[0], hot[1])
	}
}

// checkCut holds the engine's published entries and exported state to
// a single-Ingest engine fed prefix, snapshotted once, and the pair
// fan-out, the published peer lists among it, to fanout. exportFirst drains through ExportState before the
// Snapshot, so the snapshot must still republish what that drain moved.
func checkCut(t *testing.T, e *Engine, prefix []feed.Event, exportFirst bool) {
	t.Helper()
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var state *State
	if exportFirst {
		state = e.ExportState()
	}
	snap := e.Snapshot()
	if !exportFirst {
		state = e.ExportState()
	}
	ref := NewEngine(Config{})
	defer ref.Close()
	for _, ev := range prefix {
		ref.Ingest(ev)
	}
	want := ref.Snapshot()
	if snap.Observations != want.Observations {
		t.Fatalf("cut %d: %d observations published, fresh merge has %d", len(prefix), snap.Observations, want.Observations)
	}
	if got, want := marshal(snap.Entries()), marshal(want.Entries()); got != want {
		t.Fatalf("cut %d: published entries differ from a fresh merge:\ngot  %s\nwant %s", len(prefix), got, want)
	}
	if got, want := marshal(state), marshal(ref.ExportState()); got != want {
		t.Fatalf("cut %d: exported state differs from a fresh merge:\ngot  %s\nwant %s", len(prefix), got, want)
	}
	peers, prefixes := fanout(prefix)
	if len(state.Communities) != len(peers) {
		t.Fatalf("cut %d: %d communities exported, the stream has %d", len(prefix), len(state.Communities), len(peers))
	}
	published := make(map[bgp.Community][]uint32)
	for _, x := range snap.Exports() {
		published[x.Community] = x.PeerList
	}
	for _, es := range state.Communities {
		en, _ := snap.Lookup(es.Community)
		if !slices.Equal(es.Peers, peers[es.Community]) || en.Peers != len(es.Peers) ||
			!slices.Equal(published[es.Community], es.Peers) {
			t.Fatalf("cut %d: %s peers %v (entry %d, published %v), the stream's %v",
				len(prefix), es.Community, es.Peers, en.Peers, published[es.Community], peers[es.Community])
		}
		if !slices.Equal(es.Prefixes, prefixes[es.Community]) || en.Prefixes != len(es.Prefixes) {
			t.Fatalf("cut %d: %s prefixes %v (entry %d), the stream's %v", len(prefix), es.Community, es.Prefixes, en.Prefixes, prefixes[es.Community])
		}
	}
}
