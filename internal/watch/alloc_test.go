package watch_test

import (
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
	"bgpworms/internal/watch"
)

// TestSteadyStateIngestAllocations pins the ingest hot path in a unit no
// machine changes: heap allocations per event while an engine with every
// builtin detector re-ingests an announcement for a prefix it already
// tracks, window full, batch buffers warm, nothing firing. This loop
// measured 3.01 while prop-distance built a prepending-stripped copy of
// every path (three allocations per event); counting travel hops on the
// raw path it measures 0.010, the batch hand-off's few allocations per
// run. The bound is 5x that, and a single allocation per event fails it.
func TestSteadyStateIngestAllocations(t *testing.T) {
	const measuredAllocsPerEvent = 0.010
	e := watch.NewEngine(watch.Config{Shards: 1})
	defer e.Close()
	ev := feed.Event{
		PeerAS:      100,
		Prefix:      netx.MustPrefix("10.1.2.0/24"),
		ASPath:      []uint32{100, 1000, 10000},
		Communities: bgp.NewCommunitySet(bgp.C(10000, 100)),
	}
	const run = 1024
	ingest := func() {
		for i := 0; i < run; i++ {
			e.Ingest(ev)
		}
		e.Flush()
	}
	ingest() // track the prefix, fill its window, warm the batch pool
	got := testing.AllocsPerRun(20, ingest) / run
	if st := e.Stats(); st.Alerts != 0 || st.Processed != 22*run {
		t.Fatalf("not the steady state: %+v", st)
	}
	t.Logf("%.3f allocations per event (measured: %.3f)", got, measuredAllocsPerEvent)
	if got > measuredAllocsPerEvent*5 {
		t.Errorf("%.3f allocations per event, want at most %.3f", got, measuredAllocsPerEvent*5)
	}
}
