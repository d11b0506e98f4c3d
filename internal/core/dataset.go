// Package core implements the paper's primary contribution: the BGP
// community propagation analysis pipeline of §4. It consumes route
// collector data (in-memory observations or MRT byte streams, both as
// feed.Event records), normalizes AS paths (prepending removal),
// classifies communities as on-/off-path, measures propagation distances
// (Fig. 5), counts transit propagators (§4.3), infers per-edge community
// filtering from indication counts (Fig. 6), and produces the dataset
// summaries of Tables 1 and 2 and the use statistics of Figures 3 and 4.
package core

import (
	"net/netip"
	"sort"
	"strings"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/collector"
	"bgpworms/internal/feed"
)

// strippedPath returns the event's path with consecutive duplicates
// (prepending) collapsed — the normalization §4.1 applies before all
// analysis.
func strippedPath(ev *feed.Event) []uint32 {
	if len(ev.ASPath) == 0 {
		return nil
	}
	return bgp.StripPrepending(make([]uint32, 0, len(ev.ASPath)), ev.ASPath)
}

// platformOf derives a collector's platform from its name, the prefix
// before the first "-" ("RIS-00" → "RIS"; a name without one is its own
// platform). Every generated collector is named that way, and archive
// names carry the collector name, so one rule labels both the in-memory
// and the on-disk path.
func platformOf(collector string) string {
	if i := strings.Index(collector, "-"); i > 0 {
		return collector[:i]
	}
	return collector
}

// CollectorMeta identifies one collector and its peering sessions.
type CollectorMeta struct {
	Platform string
	Name     string
	// PeerIPs is the number of peering sessions ("IP peers" in Table 1).
	PeerIPs int
	// PeerASNs are the distinct ASes peered with.
	PeerASNs map[uint32]bool
}

// Dataset is the pipeline input: a month of updates across collectors,
// each labelled with its collector's name in Source.
type Dataset struct {
	Updates    []feed.Event
	Collectors []CollectorMeta
}

// FromCollectors converts attached collectors' archives into a Dataset.
// Each recorded delivery goes through the one route-to-record
// conversion, feed.Tap, and keeps the collector's session clock.
func FromCollectors(cs []*collector.Collector) *Dataset {
	ds := &Dataset{}
	for _, c := range cs {
		meta := CollectorMeta{
			Platform: string(c.Platform),
			Name:     c.Name,
			PeerASNs: make(map[uint32]bool),
		}
		for _, p := range c.Peers() {
			meta.PeerIPs++
			meta.PeerASNs[uint32(p.AS)] = true
		}
		ds.Collectors = append(ds.Collectors, meta)
		var at time.Time
		record := feed.Tap(c.Name, func(ev feed.Event) {
			ev.Time = at
			ds.Updates = append(ds.Updates, ev)
		})
		for _, ob := range c.Observations() {
			at = ob.Time
			record(ob.PeerAS, c.ASN, ob.Prefix, ob.Route)
		}
	}
	return ds
}

// routeKey identifies one (collector, peer, prefix) table slot.
type routeKey struct {
	col    string
	peer   uint32
	prefix netip.Prefix
}

// latestAgg folds the update stream down to the final route per
// (collector, peer, prefix). The first-seen order list makes
// chunk-ordered merging reproduce the serial scan exactly: a later
// chunk's entry overrides an earlier chunk's (it came later in the
// stream), and keys keep their global first-seen position.
type latestAgg struct {
	last  map[routeKey]feed.Event
	order []routeKey
}

func newLatestAgg() *latestAgg { return &latestAgg{last: make(map[routeKey]feed.Event)} }

func (a *latestAgg) add(ev *feed.Event) {
	k := routeKey{ev.Source, ev.PeerAS, ev.Prefix}
	if _, seen := a.last[k]; !seen {
		a.order = append(a.order, k)
	}
	a.last[k] = *ev
}

func (a *latestAgg) merge(b *latestAgg) {
	for _, k := range b.order {
		if _, seen := a.last[k]; !seen {
			a.order = append(a.order, k)
		}
		a.last[k] = b.last[k]
	}
}

func (a *latestAgg) finalize() []feed.Event {
	out := make([]feed.Event, 0, len(a.order))
	for _, k := range a.order {
		if ev := a.last[k]; !ev.Withdraw {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].PeerAS < out[j].PeerAS
	})
	return out
}
