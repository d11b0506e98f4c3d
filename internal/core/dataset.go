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
	"cmp"
	"maps"
	"net/netip"
	"runtime"
	"slices"
	"strings"

	"bgpworms/internal/bgp"
	"bgpworms/internal/collector"
	"bgpworms/internal/conc"
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

// blockList is an append-only sequence kept in fixed-size blocks, so a
// growing fold never copies what it already holds. Merging a later
// portion of the stream appends its blocks after the receiver's; all
// concatenates them once.
type blockList[T any] [][]T

const blockLen = 4096

func (b *blockList[T]) add(v T) {
	if n := len(*b); n == 0 || len((*b)[n-1]) == blockLen {
		*b = append(*b, make([]T, 0, blockLen))
	}
	last := &(*b)[len(*b)-1]
	*last = append(*last, v)
}

func (b *blockList[T]) merge(o blockList[T]) { *b = append(*b, o...) }

func (b blockList[T]) all() []T { return slices.Concat(b...) }

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
// Each collector's observations become events through
// Collector.AppendEvents and keep the collector's session clock. Updates
// is sized once from the observation counts, and each collector converts
// into its own segment of it concurrently, one worker per CPU; the
// segments follow cs order.
func FromCollectors(cs []*collector.Collector) *Dataset {
	starts := make([]int, len(cs)+1)
	for i, c := range cs {
		starts[i+1] = starts[i] + len(c.Observations())
	}
	updates := make([]feed.Event, starts[len(cs)])
	conc.Do(len(cs), runtime.GOMAXPROCS(0), func(i int) {
		cs[i].AppendEvents(updates[starts[i]:starts[i]:starts[i+1]])
	})
	return NewDataset(cs, updates)
}

// NewDataset labels updates, every collector's archive in cs order, with
// the collectors' sessions.
func NewDataset(cs []*collector.Collector, updates []feed.Event) *Dataset {
	ds := &Dataset{Updates: updates, Collectors: make([]CollectorMeta, len(cs))}
	for i, c := range cs {
		ds.Collectors[i] = collectorMeta(c)
	}
	return ds
}

// collectorMeta describes c and its sessions.
func collectorMeta(c *collector.Collector) CollectorMeta {
	meta := CollectorMeta{
		Platform: string(c.Platform),
		Name:     c.Name,
		PeerASNs: make(map[uint32]bool),
	}
	for _, p := range c.Peers() {
		meta.PeerIPs++
		meta.PeerASNs[uint32(p.AS)] = true
	}
	return meta
}

// slot identifies one (peer, prefix) table slot of a collector.
type slot struct {
	peer   uint32
	prefix netip.Prefix
}

// collectorView is one collector's latest route per slot, held as a
// copy of the folded event, with slots in first-seen order.
type collectorView struct {
	idx   map[slot]int
	slots []feed.Event
}

func (v *collectorView) add(ev *feed.Event) {
	k := slot{ev.PeerAS, ev.Prefix}
	if i, seen := v.idx[k]; seen {
		v.slots[i] = *ev
		return
	}
	v.idx[k] = len(v.slots)
	v.slots = append(v.slots, *ev)
}

// latestAgg folds the update stream down to the final route per
// (collector, peer, prefix), one view per collector. Merging a later
// portion of the stream reproduces the serial scan exactly: a later
// entry overrides an earlier one, and a slot keeps its first-seen
// position within its collector. A collector the receiver has not seen
// moves over whole.
type latestAgg map[string]*collectorView

func (a latestAgg) add(ev *feed.Event) {
	v := a[ev.Source]
	if v == nil {
		v = &collectorView{idx: make(map[slot]int)}
		a[ev.Source] = v
	}
	v.add(ev)
}

func (a latestAgg) merge(b latestAgg) {
	for name, bv := range b {
		v := a[name]
		if v == nil {
			a[name] = bv
			continue
		}
		for i := range bv.slots {
			v.add(&bv.slots[i])
		}
	}
}

// finalize returns the concurrent view: every slot whose latest update
// is an announcement, collectors in name order and, within one, stably
// by peer AS. Each collector filters and sorts on its own worker.
func (a latestAgg) finalize(workers int) []*feed.Event {
	names := slices.Sorted(maps.Keys(a))
	parts := make([][]*feed.Event, len(names))
	conc.Do(len(names), workers, func(i int) {
		v := a[names[i]]
		out := make([]*feed.Event, 0, len(v.slots))
		for i := range v.slots {
			if ev := &v.slots[i]; !ev.Withdraw {
				out = append(out, ev)
			}
		}
		slices.SortStableFunc(out, func(x, y *feed.Event) int { return cmp.Compare(x.PeerAS, y.PeerAS) })
		parts[i] = out
	})
	return slices.Concat(parts...)
}
