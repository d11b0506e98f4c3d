package semantics_test

import (
	"fmt"
	"net/netip"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/semantics"
)

// ExampleEngine infers a small dictionary from a handful of sightings
// and classifies each value: AS 3356's :666 appears on host routes (an
// RTBH trigger), its :100 travels as an ordinary ingress tag, and a
// squatted community naming an off-path AS stays unknown.
func ExampleEngine() {
	eng := semantics.NewEngine(semantics.Config{})
	defer eng.Close()

	path := []uint32{174, 3356, 9009}
	for i := 0; i < 4; i++ {
		// Ingress tag: on-path, ordinary /24 announcements.
		eng.Ingest(feed.Event{
			PeerAS: 174, Prefix: netip.MustParsePrefix("203.0.113.0/24"),
			ASPath:      path,
			Communities: bgp.NewCommunitySet(bgp.C(3356, 100)),
		})
		// RTBH trigger: host routes tagged 3356:666.
		eng.Ingest(feed.Event{
			PeerAS: 174, Prefix: netip.MustParsePrefix("203.0.113.9/32"),
			ASPath:      path,
			Communities: bgp.NewCommunitySet(bgp.C(3356, 666)),
		})
	}
	// A community naming an AS that is never on the path: a squat.
	eng.Ingest(feed.Event{
		PeerAS: 174, Prefix: netip.MustParsePrefix("203.0.113.0/24"),
		ASPath:      path,
		Communities: bgp.NewCommunitySet(bgp.C(65001, 666)),
	})

	snap := eng.Snapshot()
	for _, asn := range snap.ASNs() {
		for _, e := range snap.AS(asn) {
			fmt.Printf("%s %s count=%d on-path=%d\n", e.Name, e.Class, e.Count, e.OnPath)
		}
	}
	// Output:
	// 3356:100 informational count=4 on-path=4
	// 3356:666 action-blackhole count=4 on-path=4
	// 65001:666 action-blackhole count=1 on-path=0
}
