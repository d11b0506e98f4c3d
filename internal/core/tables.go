package core

import (
	"net/netip"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/stats"
)

// Table1Row is one platform row of Table 1 ("Overview of BGP dataset").
type Table1Row struct {
	Source       string
	Messages     int
	IPv4Prefixes int
	IPv6Prefixes int
	Collectors   int
	IPPeers      int
	ASPeers      int
	Communities  int
	ASes         int
	Origin       int
	Transit      int
	Stub         int
}

// table1Agg is the per-shard partial aggregate behind one Table 1 row:
// everything that can be folded update-by-update. Set-valued fields merge
// by union, counters by addition, so shard merging commutes and the
// result is independent of how updates were split across workers.
type table1Agg struct {
	messages int
	v4       map[netip.Prefix]bool
	v6       map[netip.Prefix]bool
	comms    map[bgp.Community]bool
	ases     map[uint32]bool
	origins  map[uint32]bool
	transit  map[uint32]bool
}

func newTable1Agg() *table1Agg {
	return &table1Agg{
		v4:      make(map[netip.Prefix]bool),
		v6:      make(map[netip.Prefix]bool),
		comms:   make(map[bgp.Community]bool),
		ases:    make(map[uint32]bool),
		origins: make(map[uint32]bool),
		transit: make(map[uint32]bool),
	}
}

func (a *table1Agg) add(u *feed.Event, stripped []uint32) {
	a.messages++
	if u.Prefix.Addr().Is4() {
		a.v4[u.Prefix] = true
	} else {
		a.v6[u.Prefix] = true
	}
	if u.Withdraw {
		return
	}
	for _, c := range u.Communities {
		a.comms[c] = true
	}
	for i, as := range stripped {
		a.ases[as] = true
		if i == len(stripped)-1 {
			a.origins[as] = true
		} else {
			// Neither origin nor the collector itself: transit role
			// (§4.3 footnote 6).
			a.transit[as] = true
		}
	}
}

func (a *table1Agg) merge(b *table1Agg) {
	a.messages += b.messages
	for k := range b.v4 {
		a.v4[k] = true
	}
	for k := range b.v6 {
		a.v6[k] = true
	}
	for k := range b.comms {
		a.comms[k] = true
	}
	for k := range b.ases {
		a.ases[k] = true
	}
	for k := range b.origins {
		a.origins[k] = true
	}
	for k := range b.transit {
		a.transit[k] = true
	}
}

// row fills a Table1Row from the fold aggregate plus collector metadata.
func (a *table1Agg) row(label, platform string, collectors []CollectorMeta) Table1Row {
	row := Table1Row{Source: label}
	for _, c := range collectors {
		if platform != "" && c.Platform != platform {
			continue
		}
		row.Collectors++
		row.IPPeers += c.PeerIPs
	}
	row.ASPeers = len(collectorPeers(collectors, platform))
	row.Messages = a.messages
	row.IPv4Prefixes = len(a.v4)
	row.IPv6Prefixes = len(a.v6)
	row.Communities = len(a.comms)
	row.ASes = len(a.ases)
	row.Origin = len(a.origins)
	row.Transit = len(a.transit)
	row.Stub = len(a.ases) - len(a.transit)
	return row
}

// table1Shards keys partial aggregates by platform; the union ("Total")
// row is derived by merging every platform's aggregate, since each
// update belongs to exactly one platform.
type table1Shards map[string]*table1Agg

func (s table1Shards) add(platform string, u *feed.Event, stripped []uint32) {
	agg := s[platform]
	if agg == nil {
		agg = newTable1Agg()
		s[platform] = agg
	}
	agg.add(u, stripped)
}

func (s table1Shards) merge(o table1Shards) {
	for pf, agg := range o {
		if mine := s[pf]; mine != nil {
			mine.merge(agg)
		} else {
			s[pf] = agg
		}
	}
}

func (s table1Shards) rows(collectors []CollectorMeta, platforms []string) []Table1Row {
	rows := make([]Table1Row, 0, len(platforms)+1)
	for _, pf := range platforms {
		agg := s[pf]
		if agg == nil {
			agg = newTable1Agg()
		}
		rows = append(rows, agg.row(pf, pf, collectors))
	}
	// The Total row covers every update — including platforms with no
	// collector metadata, which get no row of their own. Set unions and
	// counter sums commute, so map iteration order is immaterial.
	total := newTable1Agg()
	for _, agg := range s {
		total.merge(agg)
	}
	rows = append(rows, total.row("Total", "", collectors))
	return rows
}

// collectorPeers returns the union of peer ASNs across collectors of a
// platform ("" = all platforms).
func collectorPeers(collectors []CollectorMeta, platform string) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, c := range collectors {
		if platform != "" && c.Platform != platform {
			continue
		}
		for a := range c.PeerASNs {
			out[a] = true
		}
	}
	return out
}

// RenderTable1 renders rows in paper layout.
func RenderTable1(rows []Table1Row) string {
	t := stats.NewTable("Source", "Messages", "IPv4pfx", "IPv6pfx", "Collectors", "IPpeers", "ASpeers", "Communities", "ASes", "Origin", "Transit", "Stub")
	for _, r := range rows {
		t.Row(r.Source, r.Messages, r.IPv4Prefixes, r.IPv6Prefixes, r.Collectors, r.IPPeers, r.ASPeers, r.Communities, r.ASes, r.Origin, r.Transit, r.Stub)
	}
	return t.String()
}

// Table2Row is one platform row of Table 2 ("ASes with observed BGP
// communities").
type Table2Row struct {
	Source string
	// Total distinct ASes referenced in community high bits.
	Total int
	// WithoutCollectorPeer excludes ASes directly peering with the
	// platform's collectors.
	WithoutCollectorPeer int
	// OnPath ASes appear on the AS path of an update carrying their
	// community.
	OnPath int
	// OffPath ASes never do.
	OffPath int
	// OffPathWithoutPrivate excludes RFC 6996 private ASNs.
	OffPathWithoutPrivate int
}

// table2Agg folds the community-AS classification of one platform: both
// sets merge by union across shards.
type table2Agg struct {
	all    map[uint32]bool
	onPath map[uint32]bool
}

func newTable2Agg() *table2Agg {
	return &table2Agg{all: make(map[uint32]bool), onPath: make(map[uint32]bool)}
}

func (a *table2Agg) add(u *feed.Event, stripped []uint32) {
	if u.Withdraw || len(u.Communities) == 0 {
		return
	}
	for _, c := range u.Communities {
		asn := uint32(c.ASN())
		if asn == 0 || asn == 0xFFFF {
			continue // well-known ranges are not AS references
		}
		a.all[asn] = true
		for _, onpath := range stripped {
			if onpath == asn {
				a.onPath[asn] = true
				break
			}
		}
	}
}

func (a *table2Agg) merge(b *table2Agg) {
	for k := range b.all {
		a.all[k] = true
	}
	for k := range b.onPath {
		a.onPath[k] = true
	}
}

func (a *table2Agg) row(label, platform string, collectors []CollectorMeta) Table2Row {
	row := Table2Row{Source: label}
	peers := collectorPeers(collectors, platform)
	row.Total = len(a.all)
	for asn := range a.all {
		if !peers[asn] {
			row.WithoutCollectorPeer++
		}
		if a.onPath[asn] {
			row.OnPath++
		} else {
			row.OffPath++
			if !bgp.IsPrivateASN(asn) {
				row.OffPathWithoutPrivate++
			}
		}
	}
	return row
}

// table2Shards keys partial aggregates by platform, like table1Shards.
type table2Shards map[string]*table2Agg

func (s table2Shards) add(platform string, u *feed.Event, stripped []uint32) {
	agg := s[platform]
	if agg == nil {
		agg = newTable2Agg()
		s[platform] = agg
	}
	agg.add(u, stripped)
}

func (s table2Shards) merge(o table2Shards) {
	for pf, agg := range o {
		if mine := s[pf]; mine != nil {
			mine.merge(agg)
		} else {
			s[pf] = agg
		}
	}
}

func (s table2Shards) rows(collectors []CollectorMeta, platforms []string) []Table2Row {
	rows := make([]Table2Row, 0, len(platforms)+1)
	for _, pf := range platforms {
		agg := s[pf]
		if agg == nil {
			agg = newTable2Agg()
		}
		rows = append(rows, agg.row(pf, pf, collectors))
	}
	// Total covers every update, including platforms without collector
	// metadata (see table1Shards.rows).
	total := newTable2Agg()
	for _, agg := range s {
		total.merge(agg)
	}
	rows = append(rows, total.row("Total", "", collectors))
	return rows
}

// RenderTable2 renders rows in paper layout.
func RenderTable2(rows []Table2Row) string {
	t := stats.NewTable("Source", "Total", "w/oCollPeer", "OnPath", "OffPath", "OffPath w/o private")
	for _, r := range rows {
		t.Row(r.Source, r.Total, r.WithoutCollectorPeer, r.OnPath, r.OffPath, r.OffPathWithoutPrivate)
	}
	return t.String()
}
