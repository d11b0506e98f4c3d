package core

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/stats"
)

// TaggerIndex returns the position (0 = collector peer, len-1 = origin) of
// the conservative tagger of community c on a prepending-stripped path:
// the AS named by the community's high bits, taking the occurrence nearest
// the observer. Returns -1 when the community is off-path (§4.3).
func TaggerIndex(path []uint32, c bgp.Community) int {
	asn := uint32(c.ASN())
	for i, a := range path {
		if a == asn {
			return i
		}
	}
	return -1
}

// CommunityObservation is one (announcement, community) pair with its
// inferred propagation geometry.
type CommunityObservation struct {
	Community bgp.Community
	// PathLen is the stripped AS path length in hops.
	PathLen int
	// TaggerIdx is the conservative tagger position (-1 = off-path).
	TaggerIdx int
	// Blackhole marks communities identified as blackholing triggers.
	Blackhole bool
}

// Distance returns the AS-hop count the community traveled, counting the
// edge to the monitor (§4.3): a community tagged by the collector peer has
// distance 1. Off-path communities have no distance (-1).
func (o CommunityObservation) Distance() int {
	if o.TaggerIdx < 0 {
		return -1
	}
	return o.TaggerIdx + 1
}

// OnPath reports whether the community's AS appears on the path.
func (o CommunityObservation) OnPath() bool { return o.TaggerIdx >= 0 }

// PropagationAnalysis is the full §4.3 computation over a dataset.
type PropagationAnalysis struct {
	Observations []CommunityObservation
}

// IsBlackholeClassifier builds the classifier the paper uses: the RFC 7999
// value 666, plus a verified/inferred list (here, the generator registry).
func IsBlackholeClassifier(known []bgp.Community) func(bgp.Community) bool {
	set := make(map[bgp.Community]bool, len(known))
	for _, c := range known {
		set[c] = true
	}
	return func(c bgp.Community) bool {
		return c.Value() == bgp.BlackholeValue || set[c]
	}
}

// propAgg folds per-(announcement, community) observations. Each
// accumulator's observations match the serial scan of its portion, and
// Merge appends the later portion's after the receiver's, so the
// concatenation in finalize reproduces the exact serial Observations
// slice. The classifier closure is shared read-only across workers.
type propAgg struct {
	obs         blockList[CommunityObservation]
	isBlackhole func(bgp.Community) bool
}

func newPropAgg(isBlackhole func(bgp.Community) bool) *propAgg {
	return &propAgg{isBlackhole: isBlackhole}
}

func (a *propAgg) add(u *feed.Event, stripped []uint32) {
	if u.Withdraw || len(u.Communities) == 0 {
		return
	}
	for _, c := range u.Communities {
		if c.ASN() == 0 || c.ASN() == 0xFFFF {
			// Reserved ranges name no AS; they are "off-path private"
			// by construction and excluded from distance analysis.
			continue
		}
		a.obs.add(CommunityObservation{
			Community: c,
			PathLen:   len(stripped),
			TaggerIdx: TaggerIndex(stripped, c),
			Blackhole: a.isBlackhole(c),
		})
	}
}

func (a *propAgg) merge(b *propAgg) { a.obs.merge(b.obs) }

func (a *propAgg) finalize() *PropagationAnalysis {
	return &PropagationAnalysis{Observations: a.obs.all()}
}

// Figure5a returns the propagation-distance ECDFs for all on-path
// communities and for the blackholing subset.
func (pa *PropagationAnalysis) Figure5a() (all, blackhole *stats.ECDF) {
	var a, b []float64
	for _, o := range pa.Observations {
		d := o.Distance()
		if d < 0 {
			continue
		}
		a = append(a, float64(d))
		if o.Blackhole {
			b = append(b, float64(d))
		}
	}
	return stats.NewECDF(a), stats.NewECDF(b)
}

// Figure5b returns, per AS-path length, the ECDF of relative propagation
// distance (distance / path length). Communities tagged by the monitor's
// direct peer are excluded; the edge to the monitor is counted (§4.3).
func (pa *PropagationAnalysis) Figure5b(minLen, maxLen int) map[int]*stats.ECDF {
	byLen := map[int][]float64{}
	for _, o := range pa.Observations {
		if o.TaggerIdx <= 0 || o.PathLen < minLen || o.PathLen > maxLen {
			continue
		}
		byLen[o.PathLen] = append(byLen[o.PathLen], float64(o.Distance())/float64(o.PathLen))
	}
	out := make(map[int]*stats.ECDF, len(byLen))
	for l, v := range byLen {
		out[l] = stats.NewECDF(v)
	}
	return out
}

// ValueShare is one bar of Figure 5c.
type ValueShare struct {
	Value uint16
	Count int
	// Share is the fraction of community observations in the class.
	Share float64
}

// Figure5c returns the top-K community values for off-path and on-path
// communities, ties broken by the value's decimal text.
func (pa *PropagationAnalysis) Figure5c(k int) (offPath, onPath []ValueShare) {
	off, on := map[uint16]int{}, map[uint16]int{}
	for _, o := range pa.Observations {
		if o.OnPath() {
			on[o.Community.Value()]++
		} else {
			off[o.Community.Value()]++
		}
	}
	top := func(counts map[uint16]int) []ValueShare {
		total := 0
		var out []ValueShare
		for v, n := range counts {
			total += n
			out = append(out, ValueShare{Value: v, Count: n})
		}
		slices.SortFunc(out, func(x, y ValueShare) int {
			if c := cmp.Compare(y.Count, x.Count); c != 0 {
				return c
			}
			return strings.Compare(strconv.Itoa(int(x.Value)), strconv.Itoa(int(y.Value)))
		})
		if k < len(out) {
			out = out[:k]
		}
		for i := range out {
			out[i].Share = float64(out[i].Count) / float64(total)
		}
		return out
	}
	return top(off), top(on)
}

// TransitReport is the §4.3 transit-propagation count.
type TransitReport struct {
	// TransitASes appear on some path in a non-origin position.
	TransitASes int
	// Propagators relayed at least one foreign community (excluding
	// direct collector peers, which have collector-specific configs).
	Propagators int
}

// transitAgg folds the transit / propagator AS sets behind §4.3's
// headline number (how many transit ASes forward received communities
// onward); both merge by union. An AS at position j counts as a
// propagator when 0 < j < taggerIdx for some observed community: it sat
// strictly between the tagger and the collector's direct peer.
type transitAgg struct {
	transit map[uint32]bool
	prop    map[uint32]bool
}

func newTransitAgg() *transitAgg {
	return &transitAgg{transit: make(map[uint32]bool), prop: make(map[uint32]bool)}
}

func (a *transitAgg) add(u *feed.Event, stripped []uint32) {
	if u.Withdraw {
		return
	}
	for i, as := range stripped {
		if i < len(stripped)-1 {
			a.transit[as] = true
		}
	}
	for _, c := range u.Communities {
		if c.ASN() == 0 || c.ASN() == 0xFFFF {
			continue
		}
		ti := TaggerIndex(stripped, c)
		for j := 1; j < ti; j++ {
			a.prop[stripped[j]] = true
		}
	}
}

func (a *transitAgg) merge(b *transitAgg) {
	for k := range b.transit {
		a.transit[k] = true
	}
	for k := range b.prop {
		a.prop[k] = true
	}
}

func (a *transitAgg) finalize() TransitReport {
	return TransitReport{TransitASes: len(a.transit), Propagators: len(a.prop)}
}

// RenderFigure5a renders the two ECDFs at the paper's anchor points.
func RenderFigure5a(all, blackhole *stats.ECDF) string {
	t := stats.NewTable("Hops<=", "All", "Blackholing")
	for _, h := range []float64{1, 2, 3, 4, 5, 6, 8, 10, 12} {
		t.Row(h, all.At(h), blackhole.At(h))
	}
	return t.String()
}

// RenderFigure5b renders relative-distance quantiles per path length.
func RenderFigure5b(m map[int]*stats.ECDF) string {
	lens := make([]int, 0, len(m))
	for l := range m {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	t := stats.NewTable("PathLen", "N", "p25", "p50", "p75", "p90")
	for _, l := range lens {
		e := m[l]
		t.Row(l, e.Len(), e.Quantile(0.25), e.Quantile(0.5), e.Quantile(0.75), e.Quantile(0.9))
	}
	return t.String()
}

// RenderFigure5c renders both top-10 bars.
func RenderFigure5c(off, on []ValueShare) string {
	t := stats.NewTable("Rank", "OffPathValue", "OffShare", "OnPathValue", "OnShare")
	n := len(off)
	if len(on) > n {
		n = len(on)
	}
	for i := 0; i < n; i++ {
		var ov, os, nv, ns any = "", "", "", ""
		if i < len(off) {
			ov, os = off[i].Value, off[i].Share
		}
		if i < len(on) {
			nv, ns = on[i].Value, on[i].Share
		}
		t.Row(i+1, ov, os, nv, ns)
	}
	return t.String()
}
