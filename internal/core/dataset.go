// Package core implements the paper's primary contribution: the BGP
// community propagation analysis pipeline of §4. It consumes route
// collector data (in-memory observations or MRT byte streams), normalizes
// AS paths (prepending removal), classifies communities as on-/off-path,
// measures propagation distances (Fig. 5), counts transit propagators
// (§4.3), infers per-edge community filtering from indication counts
// (Fig. 6), and produces the dataset summaries of Tables 1 and 2 and the
// use statistics of Figures 3 and 4.
package core

import (
	"io"
	"net/netip"
	"sort"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/collector"
)

// Update is one normalized routing observation at a collector.
type Update struct {
	Platform  string
	Collector string
	PeerAS    uint32
	Time      time.Time
	Prefix    netip.Prefix
	// ASPath is nearest-AS-first (peer first, origin last), raw (with
	// prepending).
	ASPath []uint32
	// Communities is the normalized community set.
	Communities bgp.CommunitySet
	// Withdraw marks withdrawals; attribute fields are empty for them.
	Withdraw bool
}

// StrippedPath returns the path with consecutive duplicates (prepending)
// collapsed — the normalization §4.1 applies before all analysis.
func (u *Update) StrippedPath() []uint32 {
	return bgp.Path(u.ASPath...).StripPrepending()
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

// Dataset is the pipeline input: a month of updates across collectors.
type Dataset struct {
	Updates    []Update
	Collectors []CollectorMeta
}

// FromCollectors converts attached collectors' archives into a Dataset.
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
		for _, ob := range c.Observations() {
			u := Update{
				Platform:  string(c.Platform),
				Collector: c.Name,
				PeerAS:    uint32(ob.PeerAS),
				Time:      ob.Time,
				Prefix:    ob.Prefix,
			}
			if ob.Route == nil {
				u.Withdraw = true
			} else {
				u.ASPath = ob.Route.ASPath.Sequence()
				u.Communities = ob.Route.Communities.Clone()
			}
			ds.Updates = append(ds.Updates, u)
		}
	}
	return ds
}

// ReadMRTUpdates parses a BGP4MP update stream (as written by
// collector.WriteUpdatesMRT) into a Dataset fragment for one collector.
// It materializes the stream; use StreamMRTUpdates to classify without
// retaining the update slice.
func ReadMRTUpdates(platform, collectorName string, r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	meta, err := StreamMRTUpdates(platform, collectorName, r, func(u *Update) error {
		ds.Updates = append(ds.Updates, *u)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.Collectors = append(ds.Collectors, meta)
	return ds, nil
}

// Merge appends other's updates and collectors into ds.
func (ds *Dataset) Merge(other *Dataset) {
	ds.Updates = append(ds.Updates, other.Updates...)
	ds.Collectors = append(ds.Collectors, other.Collectors...)
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
	last  map[routeKey]Update
	order []routeKey
}

func newLatestAgg() *latestAgg { return &latestAgg{last: make(map[routeKey]Update)} }

func (a *latestAgg) add(u *Update) {
	k := routeKey{u.Collector, u.PeerAS, u.Prefix}
	if _, seen := a.last[k]; !seen {
		a.order = append(a.order, k)
	}
	a.last[k] = *u
}

func (a *latestAgg) merge(b *latestAgg) {
	for _, k := range b.order {
		if _, seen := a.last[k]; !seen {
			a.order = append(a.order, k)
		}
		a.last[k] = b.last[k]
	}
}

func (a *latestAgg) finalize() []Update {
	out := make([]Update, 0, len(a.order))
	for _, k := range a.order {
		if u := a.last[k]; !u.Withdraw {
			out = append(out, u)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Collector != out[j].Collector {
			return out[i].Collector < out[j].Collector
		}
		return out[i].PeerAS < out[j].PeerAS
	})
	return out
}

// LatestRoutes reduces the update stream, over the worker pool, to the
// final route per (collector, peer, prefix) — the "at the same time"
// concurrent view the §4.4 filter inference iterates over. Withdrawn
// entries are removed.
func (p *Pipeline) LatestRoutes(ds *Dataset) []Update {
	aggs := foldChunks(ds.Updates, p.workers(),
		newLatestAgg,
		func(a *latestAgg, u *Update, _ []uint32) { a.add(u) })
	merged := newLatestAgg()
	for _, a := range aggs {
		merged.merge(a)
	}
	return merged.finalize()
}
