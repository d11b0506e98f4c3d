package watch_test

import (
	"cmp"
	"net/netip"
	"slices"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/watch"
)

// window is one prefix's events as a test states them, oldest first.
type window struct {
	prefix netip.Prefix
	total  uint64
	events []feed.Event
}

// stateOf is the State a checkpoint decoder would hand RestoreState for
// these windows.
func stateOf(seq uint64, windows []window) *watch.State {
	st := &watch.State{Seq: seq}
	for _, w := range windows {
		st.AppendWindow(w.prefix, w.total, w.events)
	}
	return st
}

// eventsOf reads an exported window back as events, oldest first.
func eventsOf(w *watch.PrefixWindow) []feed.Event {
	var events []feed.Event
	for i := 0; i < w.Len(); i++ {
		events = append(events, w.At(i).FeedEvent(w.Prefix))
	}
	return events
}

// sameEvent compares every field, Time by == so that its location, a
// zero time and the absence of a monotonic reading all count.
func sameEvent(a, b *feed.Event) bool {
	return a.Seq == b.Seq && a.Time == b.Time && a.Source == b.Source && a.PeerAS == b.PeerAS &&
		a.Prefix == b.Prefix && slices.Equal(a.ASPath, b.ASPath) &&
		slices.Equal(a.Communities, b.Communities) && a.Withdraw == b.Withdraw
}

// roundTripWindows covers what a window must keep: two sources in one
// window, a time outside UTC, withdrawals, zero times, and an event
// with no valid prefix, which the engine keys under the zero prefix.
func roundTripWindows(t *testing.T) []window {
	t.Helper()
	t0 := time.Date(2018, 4, 3, 12, 30, 0, 123456789, time.UTC)
	cet := time.FixedZone("CET", 3600)
	p4, p6 := mustPrefix(t, "10.0.0.0/24"), mustPrefix(t, "2001:db8::/48")
	return []window{
		{netip.Prefix{}, 3, []feed.Event{
			{Seq: 3, Time: t0.Add(1500 * time.Millisecond).In(cet), Source: "rrc00", PeerAS: 1, ASPath: []uint32{1}},
		}},
		{p4, 9, []feed.Event{
			{Seq: 1, Time: t0, Source: "rrc00", PeerAS: 64512, Prefix: p4,
				ASPath: []uint32{64512, 3356, 65001}, Communities: bgp.NewCommunitySet(bgp.C(3356, 666), bgp.C(65001, 100))},
			{Seq: 2, Time: t0.Add(time.Second).In(cet), Source: "route-views2", PeerAS: 64513, Prefix: p4,
				ASPath: []uint32{64513, 65001}, Communities: bgp.NewCommunitySet(bgp.C(64513, 20))},
			{Seq: 4, Time: t0.Add(2 * time.Second), Source: "rrc00", PeerAS: 64512, Prefix: p4, Withdraw: true},
		}},
		{p6, 2, []feed.Event{
			{Seq: 5, PeerAS: 64514, Prefix: p6, ASPath: []uint32{64514, 64514, 65002}, Communities: bgp.NewCommunitySet(bgp.C(65002, 1))},
			{Seq: 6, Source: "rrc00", PeerAS: 64514, Prefix: p6, Withdraw: true},
		}},
	}
}

// checkWindows requires st to hold exactly want, window by window and
// event by event.
func checkWindows(t *testing.T, how string, st *watch.State, want []window) {
	t.Helper()
	if len(st.Prefixes) != len(want) {
		t.Fatalf("%s: %d windows, want %d", how, len(st.Prefixes), len(want))
	}
	for _, w := range want {
		i := slices.IndexFunc(st.Prefixes, func(g watch.PrefixWindow) bool { return g.Prefix == w.prefix })
		if i < 0 {
			t.Fatalf("%s: no window for %v", how, w.prefix)
		}
		g := &st.Prefixes[i]
		if g.Total != w.total {
			t.Fatalf("%s: window %v total %d, want %d", how, w.prefix, g.Total, w.total)
		}
		got := eventsOf(g)
		if len(got) != len(w.events) {
			t.Fatalf("%s: window %v holds %d events, want %d", how, w.prefix, len(got), len(w.events))
		}
		for j := range got {
			if !sameEvent(&got[j], &w.events[j]) {
				t.Fatalf("%s: window %v event %d:\ngot  %+v\nwant %+v", how, w.prefix, j, got[j], w.events[j])
			}
		}
	}
}

// TestWindowRoundTrip pins that a window gives back exactly the events
// pushed through it, whether they arrived by RestoreState or by Ingest,
// and that ExportState, RestoreState and PrefixInfo read them so.
func TestWindowRoundTrip(t *testing.T) {
	want := roundTripWindows(t)

	restored := watch.NewEngine(watch.Config{Shards: 2})
	defer restored.Close()
	if err := restored.RestoreState(stateOf(6, want)); err != nil {
		t.Fatal(err)
	}
	exported := restored.ExportState()
	checkWindows(t, "restored", exported, want)

	// An export restores into an engine of another shape unchanged.
	again := watch.NewEngine(watch.Config{Shards: 3})
	defer again.Close()
	if err := again.RestoreState(exported); err != nil {
		t.Fatal(err)
	}
	checkWindows(t, "restored from an export", again.ExportState(), want)

	// Ingest stamps a zero time, so only the windows with real times are
	// fed, every event in global sequence order.
	var fed []window
	var stream []feed.Event
	for _, w := range want {
		if !w.events[0].Time.IsZero() {
			fed = append(fed, window{w.prefix, uint64(len(w.events)), w.events})
			stream = append(stream, w.events...)
		}
	}
	slices.SortFunc(stream, func(a, b feed.Event) int { return cmp.Compare(a.Seq, b.Seq) })
	ingested := watch.NewEngine(watch.Config{Shards: 2})
	defer ingested.Close()
	for _, ev := range stream {
		ingested.Ingest(ev)
	}
	checkWindows(t, "ingested", ingested.ExportState(), fed)

	// PrefixInfo reads the newest windowed event's time as it arrived.
	for _, w := range want {
		info, ok := again.PrefixInfo(w.prefix)
		last := w.events[len(w.events)-1]
		if !ok || info.LastSeq != last.Seq || info.LastTime != last.Time || info.Withdrawn != last.Withdraw {
			t.Fatalf("PrefixInfo(%v) = %+v, %v; want seq %d at %v", w.prefix, info, ok, last.Seq, last.Time)
		}
	}
}
