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
// tracks, window full, batch buffers warm, nothing firing. The commit
// that retired the `go test -bench` ratchet measured 3.01 for this loop
// (3,082 allocations per 1,024-event run, 3.02 under -race); the bound
// is 1.25x that.
func TestSteadyStateIngestAllocations(t *testing.T) {
	const parentAllocsPerEvent = 3.01
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
	t.Logf("%.3f allocations per event (parent: %.2f)", got, parentAllocsPerEvent)
	if got > parentAllocsPerEvent*1.25 {
		t.Errorf("%.3f allocations per event, want at most %.3f", got, parentAllocsPerEvent*1.25)
	}
}
