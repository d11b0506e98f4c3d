package watch_test

import (
	"net/netip"
	"strings"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// feedAll runs a fixed event sequence through a fresh single-shard
// engine and returns the alerts.
func feedAll(t *testing.T, events ...feed.Event) []watch.Alert {
	t.Helper()
	e := watch.NewEngine(watch.Config{Shards: 1})
	defer e.Close()
	for _, ev := range events {
		e.Ingest(ev)
	}
	e.Flush()
	return e.Alerts()
}

func byDetector(alerts []watch.Alert, name string) []watch.Alert {
	var out []watch.Alert
	for _, a := range alerts {
		if a.Detector == name {
			out = append(out, a)
		}
	}
	return out
}

func announce(peer uint32, p netip.Prefix, path []uint32, comms ...bgp.Community) feed.Event {
	return feed.Event{PeerAS: peer, Prefix: p, ASPath: path, Communities: bgp.NewCommunitySet(comms...)}
}

func TestBlackholeOnsetFiresOncePerEpisode(t *testing.T) {
	p := netx.MustPrefix("203.0.113.9/32")
	path := []uint32{100, 200}
	bh := bgp.C(100, 666)
	alerts := byDetector(feedAll(t,
		announce(100, p, path),                   // baseline, untagged
		announce(100, p, path, bh),               // onset
		announce(100, p, path, bh),               // same episode: silent
		announce(101, p, []uint32{101, 200}, bh), // other session, same episode: silent
	), "blackhole-onset")
	if len(alerts) != 1 {
		t.Fatalf("onset alerts = %d, want 1: %v", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Seq != 2 || a.Community != "100:666" || a.Severity != watch.Critical {
		t.Fatalf("alert = %+v", a)
	}
	if !strings.Contains(a.Message, "blackhole") {
		t.Fatalf("message = %q", a.Message)
	}
}

func TestCommunitySquatOffPathOnly(t *testing.T) {
	p := netx.MustPrefix("198.51.100.0/24")
	path := []uint32{100, 200, 300}
	onPath := bgp.C(200, 100)   // names a path AS: legitimate
	offPath := bgp.C(4242, 100) // names nobody on the path
	alerts := byDetector(feedAll(t,
		announce(100, p, path, onPath),
		announce(100, p, path, onPath, offPath), // first off-path sighting
		announce(100, p, path, onPath, offPath), // windowed: silent
	), "community-squat")
	if len(alerts) != 1 {
		t.Fatalf("squat alerts = %d, want 1: %v", len(alerts), alerts)
	}
	if alerts[0].Community != "4242:100" || alerts[0].Seq != 2 {
		t.Fatalf("alert = %+v", alerts[0])
	}
}

func TestCommunitySquatIgnoresWellKnown(t *testing.T) {
	p := netx.MustPrefix("198.51.100.0/24")
	alerts := byDetector(feedAll(t,
		announce(100, p, []uint32{100}, bgp.CommunityNoExport),
	), "community-squat")
	if len(alerts) != 0 {
		t.Fatalf("well-known community alerted: %v", alerts)
	}
}

func TestPropDistanceSpike(t *testing.T) {
	p := netx.MustPrefix("192.0.2.0/24")
	far := bgp.C(900, 7) // tagged by the AS 4 hops from the peer
	longPath := []uint32{10, 20, 30, 40, 900, 950}
	alerts := byDetector(feedAll(t,
		announce(10, p, []uint32{10, 900, 950}, far), // traveled 1 hop: quiet
		announce(10, p, longPath, far),               // traveled 4 hops: spike
		announce(10, p, longPath, far),               // windowed repeat: quiet
	), "prop-distance")
	if len(alerts) != 1 {
		t.Fatalf("prop-distance alerts = %d, want 1: %v", len(alerts), alerts)
	}
	if alerts[0].Seq != 2 || alerts[0].Community != "900:7" {
		t.Fatalf("alert = %+v", alerts[0])
	}
}

func TestPropDistanceStripsPrepending(t *testing.T) {
	p := netx.MustPrefix("192.0.2.0/24")
	c := bgp.C(900, 7)
	// 4 raw hops of prepending collapse to 1 stripped hop: no spike.
	alerts := byDetector(feedAll(t,
		announce(10, p, []uint32{10, 10, 10, 10, 900}, c),
	), "prop-distance")
	if len(alerts) != 0 {
		t.Fatalf("prepending counted as travel: %v", alerts)
	}
}

func TestRouteLeakOriginShift(t *testing.T) {
	p := netx.MustPrefix("203.0.113.0/24")
	alerts := byDetector(feedAll(t,
		announce(100, p, []uint32{100, 300}), // origin 300 established
		announce(100, p, []uint32{100, 999}), // origin shifted: leak signature
		announce(100, p, []uint32{100, 999}), // windowed: silent
		announce(100, p, []uint32{100, 300}), // shift back would re-fire only if 300 aged out
	), "route-leak")
	if len(alerts) != 1 {
		t.Fatalf("route-leak alerts = %d, want 1: %v", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Seq != 2 || a.Origin != 999 || a.Severity != watch.Critical {
		t.Fatalf("alert = %+v", a)
	}
}

func TestRouteLeakFirstSightingSilent(t *testing.T) {
	p := netx.MustPrefix("203.0.113.0/24")
	alerts := byDetector(feedAll(t,
		announce(100, p, []uint32{100, 300}),
	), "route-leak")
	if len(alerts) != 0 {
		t.Fatalf("first sighting alerted: %v", alerts)
	}
}

// TestResolveDetectors pins the catalog: the default set in its fixed
// order (the dictionary pair only with a dictionary), named detectors in
// the order given, and the two refusals.
func TestResolveDetectors(t *testing.T) {
	names := func(dets []watch.Detector, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range dets {
			out = append(out, d.Name())
		}
		return strings.Join(out, ",")
	}
	dict := &semantics.Snapshot{}
	for _, c := range []struct {
		names []string
		dict  semantics.Provider
		want  string
	}{
		{nil, nil, "blackhole-onset,community-squat,prop-distance,route-leak"},
		{nil, dict, "blackhole-onset,community-squat,prop-distance,route-leak,dict-squat,unknown-action-community"},
		{[]string{"route-leak", "blackhole-onset"}, nil, "route-leak,blackhole-onset"},
		{[]string{"dict-squat", "route-leak"}, dict, "dict-squat,route-leak"},
	} {
		if got := names(watch.ResolveDetectors(c.names, c.dict)); got != c.want {
			t.Errorf("ResolveDetectors(%v, dict=%v) = %s, want %s", c.names, c.dict != nil, got, c.want)
		}
	}
	if _, err := watch.ResolveDetectors([]string{"nope"}, dict); err == nil || !strings.Contains(err.Error(), `unknown detector "nope"`) {
		t.Errorf("unknown name: err = %v", err)
	}
	if _, err := watch.ResolveDetectors([]string{watch.DictSquatName}, nil); err == nil || !strings.Contains(err.Error(), "needs a dictionary") {
		t.Errorf("dictionary detector without a dictionary: err = %v", err)
	}
}
