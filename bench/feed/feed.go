// Package feed synthesizes the update stream both serving workloads
// push into wormwatchd: one generated world's collector archives,
// decoded and re-encoded once into a single pre-encoded blob, then
// looped by patching four timestamp bytes and one NLRI octet per
// record. The stream is a pure function of (scale, seed, sequence of
// Append calls), so a reference engine fed by a second Stream sees the
// very bytes the daemon did.
//
// The world behind the feed is the same for every seed. Across generator
// seeds a small world's churn raises anywhere from 20K to 96K alerts per
// 2.9M events, a fivefold swing in what an event costs the daemon, and a
// benchmark whose runs each take another seed would measure that swing
// and little else. The seed instead decides where every prefix lands in
// the address space (and so which shard owns it), which prefix universe
// the loop starts in, and which addresses the probes use: no two seeds
// send the same bytes, every seed sends the same detector work.
package feed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/gen"
	"bgpworms/internal/mrt"
	"bgpworms/internal/serve"
)

// Universes is how many disjoint prefix universes the loop rotates
// through: loop k of the feed announces every prefix with its first
// octet rotated k%Universes steps inside its ownership region, so the
// daemon tracks Universes× the world's prefixes while the bytes stay
// pre-encoded. It cannot exceed the narrowest region (42 octets).
const Universes = 32

// EventsPerSecond is the event-time density of the stream: record i
// carries MRT timestamp base + i/EventsPerSecond seconds, whatever the
// wall-clock rate it is sent at, so detector windows (15 min of event
// time) see the same stream at every load step.
const EventsPerSecond = 1000

// region is a run of first octets that RangeMap(2) and RangeMap(3) each
// assign to a single shard; share is the event mass it must carry for
// both maps to split evenly. Octets 85 and 170 straddle a RangeMap(3)
// boundary and 0, 224+ are not unicast, so no region holds them.
type region struct {
	lo, size int
	share    float64
}

var regions = []region{
	{1, 84, 1.0 / 3},  // shard 0 of 2, 0 of 3
	{86, 42, 1.0 / 6}, // shard 0 of 2, 1 of 3
	{128, 42, 1.0 / 6},
	{171, 53, 1.0 / 3},
}

// Record locates one pre-encoded MRT record in Feed.Blob.
type Record struct {
	Off, Len int32
	// Octet is the offset, from Off, of the prefix's first address octet
	// — the one byte besides the timestamp a loop patches.
	Octet  int32
	region uint8
}

// Feed is the captured stream of one world.
type Feed struct {
	Scale string
	Seed  int64
	// Blob holds every record back to back, universe 0, event time 0.
	// It is never written after Build.
	Blob []byte
	Recs []Record
	// Prefixes counts distinct prefixes in one universe.
	Prefixes int
	// Tracked holds a few of the busiest prefixes as the first loop
	// announces them, for queries that should hit live window state.
	Tracked []netip.Prefix
	// Skew2 and Skew3 are max/mean of per-shard event counts under
	// RangeMap(2) and RangeMap(3), taken over all universes.
	Skew2, Skew3 float64

	firstUniverse int // the universe loop 0 announces
	probeShift    int // offset of probe 0's address inside its block
}

// worldSeed is the generator seed of the world every feed is captured
// from.
const worldSeed = 1

// Build generates the scale preset's world, lets its churn month run,
// and captures it as seed's feed.
func Build(scale string, seed int64) (*Feed, error) {
	p, err := gen.Preset(scale)
	if err != nil {
		return nil, err
	}
	p.Seed = worldSeed
	p.Engine = "delta"
	p.Workers = runtime.GOMAXPROCS(0)
	w, err := gen.Build(p)
	if err != nil {
		return nil, err
	}
	if _, err := w.RunChurn(); err != nil {
		return nil, err
	}
	return capture(w, scale, seed)
}

// capture turns a churned world's collector archives into one
// time-ordered, ownership-balanced blob.
func capture(w *gen.Internet, scale string, seed int64) (*Feed, error) {
	f := &Feed{
		Scale: scale, Seed: seed,
		firstUniverse: int(uint64(seed) % Universes),
		probeShift:    int(uint64(seed) * 7919 % probeCap),
	}

	// Decode every archive through the same reader the daemon uses.
	type captured struct {
		msg    *mrt.BGP4MPMessage
		prefix netip.Prefix
	}
	var recs []captured
	for _, c := range w.Collectors {
		var buf bytes.Buffer
		if _, err := c.WriteUpdatesMRT(&buf); err != nil {
			return nil, fmt.Errorf("feed: %s: %w", c.Name, err)
		}
		mr := mrt.NewReader(&buf)
		for {
			rec, err := mr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("feed: %s: %w", c.Name, err)
			}
			msg, ok := rec.(*mrt.BGP4MPMessage)
			if !ok {
				continue
			}
			upd, ok := msg.Message.(*bgp.Update)
			if !ok {
				continue
			}
			slot, err := prefixSlot(upd)
			if err != nil {
				return nil, fmt.Errorf("feed: %s: %w", c.Name, err)
			}
			recs = append(recs, captured{msg, *slot})
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("feed: world %s/%d produced no updates", scale, seed)
	}
	// One live feed, not thirteen files: order by session clock, archive
	// order breaking ties.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].msg.Timestamp.Before(recs[j].msg.Timestamp) })

	// Spread the world's single /8 over the unicast space so that both
	// range maps split the events evenly: heaviest prefix first, each
	// into the region furthest below its share, octet drawn from seed.
	weight := make(map[netip.Prefix]int)
	for _, r := range recs {
		weight[r.prefix]++
	}
	prefixes := make([]netip.Prefix, 0, len(weight))
	for p := range weight {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		if weight[prefixes[i]] != weight[prefixes[j]] {
			return weight[prefixes[i]] > weight[prefixes[j]]
		}
		return prefixes[i].String() < prefixes[j].String()
	})
	rng := rand.New(rand.NewSource(seed))
	type placement struct {
		octet  byte
		region uint8
	}
	placed := make(map[netip.Prefix]placement, len(prefixes))
	var mass [4]float64
	for _, p := range prefixes {
		best := 0
		for ri := range regions {
			if mass[ri]/regions[ri].share < mass[best]/regions[best].share {
				best = ri
			}
		}
		mass[best] += float64(weight[p])
		placed[p] = placement{byte(regions[best].lo + rng.Intn(regions[best].size)), uint8(best)}
		if len(f.Tracked) < 16 {
			f.Tracked = append(f.Tracked, withFirstOctet(p, rotate(placed[p].octet, uint8(best), f.firstUniverse)))
		}
	}
	f.Prefixes = len(prefixes)

	var out, alt bytes.Buffer
	mw, altw := mrt.NewWriter(&out), mrt.NewWriter(&alt)
	for _, r := range recs {
		pl := placed[r.prefix]
		slot, _ := prefixSlot(r.msg.Message.(*bgp.Update))
		r.msg.Timestamp = time.Unix(baseUnix, 0).UTC()
		// The same record with another first octet differs in exactly the
		// byte a loop must patch.
		alt.Reset()
		*slot = withFirstOctet(r.prefix, pl.octet^0x80)
		if err := altw.Write(r.msg); err != nil {
			return nil, err
		}
		off := out.Len()
		*slot = withFirstOctet(r.prefix, pl.octet)
		if err := mw.Write(r.msg); err != nil {
			return nil, err
		}
		enc := out.Bytes()[off:]
		octet := -1
		for i := range enc {
			if enc[i] != alt.Bytes()[i] {
				if octet >= 0 {
					return nil, fmt.Errorf("feed: record for %s has more than one prefix-dependent byte", r.prefix)
				}
				octet = i
			}
		}
		if octet < 0 || len(enc) != alt.Len() {
			return nil, fmt.Errorf("feed: cannot locate the prefix octet of %s", r.prefix)
		}
		f.Recs = append(f.Recs, Record{Off: int32(off), Len: int32(len(enc)), Octet: int32(octet), region: pl.region})
	}
	f.Blob = out.Bytes()
	f.Skew2, f.Skew3 = f.skew(2), f.skew(3)
	return f, nil
}

// prefixSlot returns the one place an UPDATE from a collector archive
// names its prefix.
func prefixSlot(u *bgp.Update) (*netip.Prefix, error) {
	var slot *netip.Prefix
	n := 0
	for _, l := range []*[]netip.Prefix{&u.NLRI, &u.Withdrawn, &u.Attrs.MPReachNLRI, &u.Attrs.MPUnreachNLRI} {
		n += len(*l)
		if len(*l) > 0 {
			slot = &(*l)[0]
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("update carries %d prefixes, want exactly 1", n)
	}
	return slot, nil
}

func withFirstOctet(p netip.Prefix, octet byte) netip.Prefix {
	if p.Addr().Is4() {
		a := p.Addr().As4()
		a[0] = octet
		return netip.PrefixFrom(netip.AddrFrom4(a), p.Bits())
	}
	a := p.Addr().As16()
	a[0] = octet
	return netip.PrefixFrom(netip.AddrFrom16(a), p.Bits())
}

// rotate moves a universe-0 octet to universe u inside its region.
func rotate(octet byte, ri uint8, u int) byte {
	r := regions[ri]
	return byte(r.lo + (int(octet)-r.lo+u)%r.size)
}

// skew replays every universe through RangeMap(n) and returns max/mean
// of the per-shard event counts.
func (f *Feed) skew(n int) float64 {
	rm := serve.NewRangeMap(n)
	counts := make([]int, n)
	for _, r := range f.Recs {
		base := f.Blob[r.Off+r.Octet]
		for u := 0; u < Universes; u++ {
			// Ownership is decided by the first octet alone: regions avoid
			// the octets a boundary cuts through.
			a := netip.AddrFrom4([4]byte{rotate(base, r.region, u), 0, 0, 0})
			counts[rm.Owner(netip.PrefixFrom(a, 8))]++
		}
	}
	max, sum := 0, 0
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	return float64(max) * float64(n) / float64(sum)
}

// baseUnix is event time zero (the generator's nominal month).
var baseUnix = gen.BaseTime.Unix()

// Probe prefixes: never-announced host routes, one family per shard of
// a two-shard fleet (100.64/10 sits below 128.0.0.0, 198.18/15 above).
var probeBases = [2][4]byte{{100, 64, 0, 0}, {198, 18, 0, 0}}

// probeCap keeps probe addresses inside 198.18.0.0/15.
const probeCap = 1 << 17

// ProbePrefix is the /32 probe id announces.
func (f *Feed) ProbePrefix(id int) netip.Prefix {
	a := probeBases[id%2]
	n := (id/2 + f.probeShift) % probeCap
	a[1] += byte(n >> 16)
	a[2], a[3] = byte(n>>8), byte(n)
	return netip.PrefixFrom(netip.AddrFrom4(a), 32)
}

// ProbeOwner is the shard of a two-shard fleet that owns probe id.
func ProbeOwner(id int) int { return id % 2 }

// probeRecord is the blackhole-onset trigger: a host route carrying
// 65535:666 from a fixed session. Its last four bytes are the address.
var probeRecord = func() []byte {
	var buf bytes.Buffer
	err := mrt.NewWriter(&buf).Write(&mrt.BGP4MPMessage{
		Timestamp: time.Unix(baseUnix, 0).UTC(),
		PeerAS:    64999, LocalAS: 65000,
		PeerIP: netip.AddrFrom4([4]byte{10, 255, 0, 2}), LocalIP: netip.AddrFrom4([4]byte{10, 255, 0, 1}),
		Message: &bgp.Update{
			Attrs: bgp.PathAttributes{
				ASPath:      bgp.Path(64999, 64998),
				NextHop:     netip.AddrFrom4([4]byte{10, 255, 0, 2}),
				Communities: bgp.NewCommunitySet(bgp.C(65535, 666)),
			},
			NLRI: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4(probeBases[0]), 32)},
		},
	})
	if err != nil {
		panic(err)
	}
	return buf.Bytes()
}()

// Stream is a cursor over the endless looped feed.
type Stream struct {
	f          *Feed
	recs       int // feed records emitted
	events     int // feed records + probes emitted
	probes     int
	sinceProbe int
}

// NewStream starts at loop 0, event time 0.
func (f *Feed) NewStream() *Stream { return &Stream{f: f} }

// Events is how many events (feed records plus probes) the stream has
// produced so far.
func (s *Stream) Events() int { return s.events }

// Append appends the next n feed records to dst, patched for their loop
// and event time. With probeEvery > 0 a probe follows every
// probeEvery-th feed record (counted across calls), and onProbe hears
// its id before Append returns.
func (s *Stream) Append(dst []byte, n, probeEvery int, onProbe func(id int)) []byte {
	f := s.f
	for i := 0; i < n; i++ {
		r := f.Recs[s.recs%len(f.Recs)]
		u := (s.recs/len(f.Recs) + f.firstUniverse) % Universes
		at := len(dst)
		dst = append(dst, f.Blob[r.Off:r.Off+r.Len]...)
		binary.BigEndian.PutUint32(dst[at:], s.stamp())
		dst[at+int(r.Octet)] = rotate(dst[at+int(r.Octet)], r.region, u)
		s.recs++
		s.events++
		if probeEvery <= 0 {
			continue
		}
		if s.sinceProbe++; s.sinceProbe >= probeEvery {
			s.sinceProbe = 0
			at := len(dst)
			dst = append(dst, probeRecord...)
			binary.BigEndian.PutUint32(dst[at:], s.stamp())
			a := f.ProbePrefix(s.probes).Addr().As4()
			copy(dst[len(dst)-4:], a[:])
			s.events++
			if onProbe != nil {
				onProbe(s.probes)
			}
			s.probes++
		}
	}
	return dst
}

func (s *Stream) stamp() uint32 { return uint32(baseUnix + int64(s.events/EventsPerSecond)) }
