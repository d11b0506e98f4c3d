package watch_test

import (
	"fmt"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// ExampleResolveDetectors lists the default detector set — what
// wormwatchd runs over every ingested update: the stateless rules, then
// the dictionary-aware pair once a dictionary is configured.
func ExampleResolveDetectors() {
	dets, _ := watch.ResolveDetectors(nil, &semantics.Snapshot{})
	for _, d := range dets {
		fmt.Println(d.Name())
	}
	// Output:
	// blackhole-onset
	// community-squat
	// prop-distance
	// route-leak
	// dict-squat
	// unknown-action-community
}

// ExampleEngine_Ingest streams a tiny hand-built feed — a baseline
// announcement followed by a blackhole-tagged re-announcement — and
// prints the alert the onset detector raises.
func ExampleEngine_Ingest() {
	e := watch.NewEngine(watch.Config{Shards: 2})
	defer e.Close()

	victim := netx.MustPrefix("203.0.113.9/32")
	path := []uint32{100, 200}
	e.Ingest(feed.Event{PeerAS: 100, Prefix: victim, ASPath: path})
	e.Ingest(feed.Event{PeerAS: 100, Prefix: victim, ASPath: path,
		Communities: bgp.NewCommunitySet(bgp.C(100, 666))})
	e.Flush()

	for _, a := range e.Alerts() {
		fmt.Printf("%s %s %s\n", a.Detector, a.Prefix, a.Message)
	}
	// Output:
	// blackhole-onset 203.0.113.9/32 blackhole community 100:666 onset (origin AS200)
}
