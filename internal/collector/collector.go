// Package collector models the public route-collector platforms of §4.1
// (RIPE RIS, RouteViews, Isolario, PCH): collectors peer with production
// ASes, receive full / partial / customer-only feeds, record every update,
// and export the streams and RIB snapshots in MRT so the measurement
// pipeline consumes exactly the wire format the paper's pipeline did.
package collector

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/netip"
	"sort"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/mrt"
	"bgpworms/internal/obs"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// observationsTotal counts every observation recorded by any collector
// tap in the process (one atomic add per kept delivery; metrics are
// observational only — recorded streams are identical either way).
var observationsTotal = obs.Default.Counter("collector_observations_total",
	"observations recorded across all collectors")

// Platform identifies a collector platform.
type Platform string

// The four platforms of Table 1.
const (
	PlatformRIS Platform = "RIS"
	PlatformRV  Platform = "RV"
	PlatformIS  Platform = "IS"
	PlatformPCH Platform = "PCH"
)

// Platforms lists all platforms in Table 1 row order.
var Platforms = []Platform{PlatformRIS, PlatformRV, PlatformIS, PlatformPCH}

// FeedType describes what a peer sends the collector (§4.1: "Some BGP
// peers send full routing tables, others partial views, and even others
// only their customer routes").
type FeedType int

// Feed types.
const (
	FullFeed FeedType = iota
	PartialFeed
	CustomerFeed
)

// String names the feed type.
func (f FeedType) String() string {
	switch f {
	case FullFeed:
		return "full"
	case PartialFeed:
		return "partial"
	case CustomerFeed:
		return "customer"
	default:
		return "unknown"
	}
}

// Peer is one collector peering session.
type Peer struct {
	AS   topo.ASN
	Feed FeedType
	// IP is the session address, synthesized deterministically if unset.
	IP netip.Addr
}

// Observation is one recorded routing event at a collector: 24 bytes
// and no pointer, so a collector's archive is never scanned by the
// garbage collector. Its time is derived from Seq (Time) and its prefix
// is named by id in the network's PrefixTable (Collector.Prefix); the id
// is a layout detail that orders and appears in nothing observable.
type Observation struct {
	Seq    int
	PeerAS topo.ASN
	// Route is the delivered route's handle in the network's arena, 0 for
	// withdrawals: recording one copies nothing. Collector.Route resolves
	// it.
	Route router.Handle
	pfx   uint32
}

// Time is the observation's logical session clock, feed.LogicalTime of
// its sequence number.
func (ob Observation) Time() time.Time { return feed.LogicalTime(uint64(ob.Seq)) }

// Collector is a passive measurement node attached to the network. It
// keeps the network's route arena, which resolves its observations, and
// not the network: once the network's routers are unreachable, the
// collectors and the arena are all that stay live of a world.
type Collector struct {
	Platform Platform
	Name     string
	ASN      topo.ASN

	peers  map[topo.ASN]Peer
	routes *router.RouteArena // the arena of the network Attach built the collector's node in
	obs    []Observation
	seq    int
}

// New creates a collector. asn must be unused by the production network.
func New(platform Platform, name string, asn topo.ASN) *Collector {
	return &Collector{
		Platform: platform,
		Name:     name,
		ASN:      asn,
		peers:    make(map[topo.ASN]Peer),
	}
}

// AddPeer registers a peering session to be wired at attach time.
func (c *Collector) AddPeer(p Peer) {
	if !p.IP.IsValid() {
		p.IP = peerIP(c.ASN, p.AS)
	}
	c.peers[p.AS] = p
}

// Peers returns sessions in ascending peer-AS order.
func (c *Collector) Peers() []Peer {
	out := make([]Peer, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AS < out[j].AS })
	return out
}

// Attach inserts the collector into the network: a router node built on
// it, one session per peer (full feeds ride a customer relationship so
// the peer exports its entire table; customer feeds ride a peer
// relationship), and a tap subscribed to the deliveries the collector
// receives.
func (c *Collector) Attach(n *simnet.Network) error {
	c.routes = n.Routes()
	n.AddRouter(router.Config{
		ASN:    c.ASN,
		Vendor: router.VendorJuniper,
		// Collector sessions are special: no policy, keep everything.
		Propagation: policy.PropForwardAll,
	})
	for _, p := range c.Peers() {
		switch p.Feed {
		case FullFeed, PartialFeed:
			// Peer treats collector as customer => exports everything.
			if err := n.Connect(p.AS, c.ASN, topo.RelCustomer); err != nil {
				return err
			}
		case CustomerFeed:
			// Peer treats collector as peer => exports customer routes.
			if err := n.Connect(p.AS, c.ASN, topo.RelPeer); err != nil {
				return err
			}
		}
		// Collector peerings are community-transparent (§4.3 footnote:
		// their configuration differs from the AS's regular policy).
		if pr := n.Router(p.AS); pr != nil {
			pr.EnableFullCommunityExport(c.ASN)
		}
	}
	n.Tap(c.tap, c.ASN)
	return nil
}

// tap records one delivery to the collector; it is the method value
// Attach and ForkInto register with the network, subscribed to c.ASN.
func (c *Collector) tap(from, _ topo.ASN, prefix netip.Prefix, rt simnet.RouteRef) {
	p, ok := c.peers[from]
	if !ok {
		return
	}
	if p.Feed == PartialFeed && !partialKeeps(c.ASN, from, prefix) {
		return
	}
	c.seq++
	// The delivered route is recorded by reference, not copied: a stored
	// route is never changed (a later export of the prefix is a new
	// route), and readers copy what they keep.
	c.obs = append(c.obs, Observation{Seq: c.seq, PeerAS: from, Route: rt.Handle(), pfx: c.routes.Table().Intern(prefix)})
	observationsTotal.Inc()
}

// ForkInto clones the collector against a forked network: observations
// recorded so far are shared read-only (capacity-clamped so appends
// reallocate), the sequence (and with it the logical clock) continues
// where the snapshot stopped, and a fresh tap, subscribed to the
// collector's sessions, is registered on the fork. Prefix and Route
// resolve through the fork's arena, whose cloned prefix table and
// records name the snapshot's observations as the snapshot did.
func (c *Collector) ForkInto(n *simnet.Network) *Collector {
	cp := &Collector{
		Platform: c.Platform,
		Name:     c.Name,
		ASN:      c.ASN,
		peers:    c.peers,
		routes:   n.Routes(),
		obs:      c.obs[:len(c.obs):len(c.obs)],
		seq:      c.seq,
	}
	n.Tap(cp.tap, cp.ASN)
	return cp
}

// partialKeeps deterministically keeps ~half the prefixes of a partial
// feed.
func partialKeeps(collector, peer topo.ASN, p netip.Prefix) bool {
	h := fnv.New32a()
	var b [20]byte
	b[0] = byte(collector)
	b[1] = byte(peer)
	b[2] = byte(peer >> 8)
	a := p.Addr().As16()
	copy(b[3:], a[:])
	b[19] = byte(p.Bits())
	h.Write(b[:])
	return h.Sum32()%2 == 0
}

// Route resolves the route ob recorded (the zero Ref for a withdrawal)
// through the arena of the network the collector is attached to, which
// resolves every handle a snapshot's collector recorded as well.
func (c *Collector) Route(ob Observation) router.Ref { return c.routes.Ref(ob.Route) }

// Prefix resolves the prefix ob recorded through the prefix table of the
// network the collector is attached to; a fork's table is a clone of its
// snapshot's, so it resolves the snapshot's ids and the fork's own.
func (c *Collector) Prefix(ob Observation) netip.Prefix { return c.routes.Table().At(ob.pfx) }

// Observations returns everything recorded so far.
func (c *Collector) Observations() []Observation { return c.obs }

// AppendEvents appends the archive to dst as feed.Events, in recording
// order, and returns the extended slice. Each observation goes through
// the one route-to-record conversion, feed.Tap, and keeps its time.
func (c *Collector) AppendEvents(dst []feed.Event) []feed.Event {
	var at time.Time
	record := feed.Tap(c.Name, func(ev feed.Event) {
		ev.Time = at
		dst = append(dst, ev)
	})
	for _, ob := range c.obs {
		at = ob.Time()
		record(ob.PeerAS, c.ASN, c.Prefix(ob), c.Route(ob))
	}
	return dst
}

// peerIP derives a deterministic session address.
func peerIP(collector, peer topo.ASN) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(collector), byte(peer >> 8), byte(peer)})
}

// collectorIP is the local session address.
func collectorIP(collector topo.ASN) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(collector), 0, 1})
}

// WriteUpdatesMRT serializes all observations as BGP4MP_MESSAGE_AS4
// records, announcements and withdrawals alike.
func (c *Collector) WriteUpdatesMRT(w io.Writer) (int, error) {
	mw := mrt.NewWriter(w)
	for _, ob := range c.obs {
		msg, err := c.observationToUpdate(ob)
		if err != nil {
			return mw.Count(), err
		}
		rec := &mrt.BGP4MPMessage{
			Timestamp: ob.Time(),
			PeerAS:    ob.PeerAS,
			LocalAS:   c.ASN,
			PeerIP:    peerIP(c.ASN, ob.PeerAS),
			LocalIP:   collectorIP(c.ASN),
			Message:   msg,
		}
		if err := mw.Write(rec); err != nil {
			return mw.Count(), err
		}
	}
	return mw.Count(), nil
}

// observationToUpdate converts a recorded route, resolved through the
// collector's network, into a wire UPDATE.
func (c *Collector) observationToUpdate(ob Observation) (*bgp.Update, error) {
	prefix, ref := c.Prefix(ob), c.Route(ob)
	if !ref.Valid() {
		if prefix.Addr().Is4() {
			return &bgp.Update{Withdrawn: []netip.Prefix{prefix}}, nil
		}
		return &bgp.Update{Attrs: bgp.PathAttributes{MPUnreachNLRI: []netip.Prefix{prefix}}}, nil
	}
	rt := ref.Route()
	attrs := bgp.PathAttributes{
		Origin:      rt.Origin,
		ASPath:      rt.ASPath.Clone(),
		Communities: rt.Communities.Clone(),
	}
	if prefix.Addr().Is4() {
		attrs.NextHop = peerIP(0, ob.PeerAS)
		return &bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{prefix}}, nil
	}
	attrs.MPReachNextHop = netip.MustParseAddr("2001:db8::1")
	attrs.MPReachNLRI = []netip.Prefix{prefix}
	return &bgp.Update{Attrs: attrs}, nil
}

// WriteRIBSnapshotMRT emits a TABLE_DUMP_V2 snapshot of the collector's
// current Adj-RIB-In in n, the network it is attached to: one
// PEER_INDEX_TABLE followed by one RIB record per prefix. The RIB lives
// in the collector's router node, which the collector does not keep, so
// the caller names the network; one whose arena is not the collector's
// is refused.
func (c *Collector) WriteRIBSnapshotMRT(w io.Writer, n *simnet.Network, at time.Time) (int, error) {
	if n.Routes() != c.routes {
		return 0, fmt.Errorf("collector %s: RIB snapshot of a network it is not attached to", c.Name)
	}
	mw := mrt.NewWriter(w)
	peers := c.Peers()
	idx := make(map[topo.ASN]uint16, len(peers))
	pit := &mrt.PeerIndexTable{
		Timestamp:   at,
		CollectorID: collectorIP(c.ASN),
		ViewName:    c.Name,
	}
	for i, p := range peers {
		idx[p.AS] = uint16(i)
		pit.Peers = append(pit.Peers, mrt.PeerEntry{
			BGPID: peerIP(c.ASN, p.AS), IP: p.IP, AS: p.AS,
		})
	}
	if err := mw.Write(pit); err != nil {
		return mw.Count(), err
	}

	type entryKey struct{ p netip.Prefix }
	byPrefix := make(map[entryKey][]mrt.RIBEntry)
	var order []netip.Prefix
	// The node resolves through the network, so a forked collector reads
	// the fork's copy-on-write router rather than the sealed original.
	n.Router(c.ASN).EachAdjIn(func(p netip.Prefix, from topo.ASN, rt *policy.Route) {
		// Partial feeds are partial in the table too.
		if pr, ok := c.peers[from]; ok && pr.Feed == PartialFeed && !partialKeeps(c.ASN, from, p) {
			return
		}
		k := entryKey{p}
		if _, seen := byPrefix[k]; !seen {
			order = append(order, p)
		}
		byPrefix[k] = append(byPrefix[k], mrt.RIBEntry{
			PeerIndex:      idx[from],
			OriginatedTime: at,
			Attrs: bgp.PathAttributes{
				Origin:      rt.Origin,
				ASPath:      rt.ASPath.Clone(),
				NextHop:     peerIP(0, from),
				Communities: rt.Communities.Clone(),
			},
		})
	})
	for i, p := range order {
		rec := &mrt.RIB{Timestamp: at, Sequence: uint32(i), Prefix: p, Entries: byPrefix[entryKey{p}]}
		if err := mw.Write(rec); err != nil {
			return mw.Count(), err
		}
	}
	return mw.Count(), nil
}

// String describes the collector.
func (c *Collector) String() string {
	return fmt.Sprintf("%s/%s (AS%d, %d peers, %d observations)", c.Platform, c.Name, c.ASN, len(c.peers), len(c.obs))
}
