package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
)

// staleWire is one UPDATE larger than any record the tests decode after
// it: two AS_PATH segments, communities, large communities, MED,
// LOCAL_PREF, an aggregator, MP_REACH and MP_UNREACH NLRI, IPv4 NLRI and
// withdrawals, and two unknown attributes — every field a reused decode
// must overwrite or truncate.
var staleWire = sync.OnceValues(func() ([]byte, error) {
	med, lp := uint32(7), uint32(200)
	return (&bgp.Update{
		Withdrawn: []netip.Prefix{netx.MustPrefix("198.51.100.0/24"), netx.MustPrefix("198.51.101.0/24")},
		Attrs: bgp.PathAttributes{
			Origin: bgp.OriginIncomplete,
			ASPath: bgp.ASPath{
				{Type: bgp.SegmentSequence, ASNs: []uint32{64500, 64501, 64502, 64503, 64503}},
				{Type: bgp.SegmentSet, ASNs: []uint32{64510, 64511, 64512}},
			},
			NextHop:          netip.MustParseAddr("192.0.2.99"),
			MED:              &med,
			LocalPref:        &lp,
			AtomicAggregate:  true,
			Aggregator:       &bgp.Aggregator{ASN: 64500, Addr: netip.MustParseAddr("192.0.2.98")},
			Communities:      bgp.NewCommunitySet(bgp.C(64500, 1), bgp.C(64501, 2), bgp.C(64502, 666), bgp.C(65535, 65281)),
			LargeCommunities: []bgp.LargeCommunity{{GlobalAdmin: 64500, Data1: 1, Data2: 2}, {GlobalAdmin: 64501, Data1: 3, Data2: 4}},
			MPReachNextHop:   netip.MustParseAddr("2001:db8::99"),
			MPReachNLRI:      []netip.Prefix{netx.MustPrefix("2001:db8:1::/48"), netx.MustPrefix("2001:db8:2::/48")},
			MPUnreachNLRI:    []netip.Prefix{netx.MustPrefix("2001:db8:3::/48")},
			Unknown: []bgp.RawAttr{
				{Flags: 0xC0, Type: 99, Value: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
				{Flags: 0xC0, Type: 100, Value: []byte{9, 10, 11}},
			},
		},
		NLRI: []netip.Prefix{netx.MustPrefix("203.0.113.0/24"), netx.MustPrefix("203.0.114.0/24"), netx.MustPrefix("203.0.115.0/24")},
	}).Encode()
})

// staleUpdate returns an Update that still holds staleWire's record.
func staleUpdate(t testing.TB) *bgp.Update {
	t.Helper()
	wire, err := staleWire()
	if err != nil {
		t.Fatal(err)
	}
	u := new(bgp.Update)
	if _, err := bgp.DecodeMessageInto(wire, u); err != nil {
		t.Fatal(err)
	}
	return u
}

// sameAsNext reads data through Next and, in lockstep, through
// NextUpdate into a stale Update, and fails t unless both give the same
// records and then the same error. A reused slice may be empty where a
// fresh decode leaves nil; every reader treats the two alike, so canon
// makes them equal before comparing.
func sameAsNext(t *testing.T, data []byte) {
	t.Helper()
	u := staleUpdate(t)
	fresh, reused := NewReader(bytes.NewReader(data)), NewReader(bytes.NewReader(data))
	for i := 0; ; i++ {
		want, werr := fresh.Next()
		got, gerr := reused.NextUpdate(u)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("record %d: Next gives error %v, NextUpdate %v", i, werr, gerr)
		}
		if werr != nil {
			return
		}
		if w, g := canon(want), canon(got); !reflect.DeepEqual(w, g) {
			t.Fatalf("record %d differs:\n Next       %+v\n NextUpdate %+v", i, w, g)
		}
	}
}

// canon copies a record, turning every empty slice of a BGP4MP UPDATE
// into nil.
func canon(rec Record) Record {
	m, ok := rec.(*BGP4MPMessage)
	if !ok {
		return rec
	}
	c := *m
	u, ok := m.Message.(*bgp.Update)
	if !ok {
		return &c
	}
	cu := *u
	cu.Withdrawn, cu.NLRI = orNil(u.Withdrawn), orNil(u.NLRI)
	a := &cu.Attrs
	a.ASPath, a.Unknown = nil, nil
	for _, seg := range u.Attrs.ASPath {
		a.ASPath = append(a.ASPath, bgp.PathSegment{Type: seg.Type, ASNs: orNil(seg.ASNs)})
	}
	for _, r := range u.Attrs.Unknown {
		a.Unknown = append(a.Unknown, bgp.RawAttr{Flags: r.Flags, Type: r.Type, Value: orNil(r.Value)})
	}
	a.Communities, a.LargeCommunities = orNil(a.Communities), orNil(a.LargeCommunities)
	a.MPReachNLRI, a.MPUnreachNLRI = orNil(a.MPReachNLRI), orNil(a.MPUnreachNLRI)
	c.Message = &cu
	return &c
}

func orNil[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}

// reuseStream is one record of every kind, each missing something the
// stale Update holds: an announcement with no communities and one path
// segment, an IPv6 announcement, a withdrawal, an UPDATE with only an
// unknown attribute, a BGP4MP_ET record, a keepalive, a state change,
// and a TABLE_DUMP_V2 peer table and RIB.
func reuseStream(t *testing.T) []byte {
	t.Helper()
	plain := sampleMessage(false)
	plain.Message.(*bgp.Update).Attrs.Communities = nil
	v6 := sampleMessage(false)
	v6.Message = &bgp.Update{Attrs: bgp.PathAttributes{
		ASPath:         bgp.Path(64500, 64501),
		MPReachNextHop: netip.MustParseAddr("2001:db8::7"),
		MPReachNLRI:    []netip.Prefix{netx.MustPrefix("2001:db8:f::/48")},
		Communities:    bgp.NewCommunitySet(bgp.C(64501, 9)),
	}}
	wd := sampleMessage(false)
	wd.Message = &bgp.Update{Withdrawn: []netip.Prefix{netx.MustPrefix("203.0.113.0/24")}}
	unknown := sampleMessage(false)
	unknown.Message = &bgp.Update{
		Attrs: bgp.PathAttributes{Unknown: []bgp.RawAttr{{Flags: 0xC0, Type: 99, Value: []byte{1}}}},
		NLRI:  []netip.Prefix{netx.MustPrefix("192.0.2.0/24")},
	}
	ka := sampleMessage(false)
	ka.Message = bgp.Keepalive{}
	recs := []Record{
		plain, v6, wd, unknown, sampleMessage(true), ka,
		&StateChange{Timestamp: t0, PeerAS: 64500, LocalAS: 65001, PeerIP: plain.PeerIP, LocalIP: plain.LocalIP, OldState: 5, NewState: 6},
		&PeerIndexTable{Timestamp: t0, CollectorID: netip.MustParseAddr("198.51.100.1"), ViewName: "rrc00",
			Peers: []PeerEntry{{BGPID: netip.MustParseAddr("10.0.0.1"), IP: plain.PeerIP, AS: 64500}}},
		&RIB{Timestamp: t0, Sequence: 1, Prefix: netx.MustPrefix("203.0.113.0/24"),
			Entries: []RIBEntry{{OriginatedTime: t0, Attrs: bgp.PathAttributes{ASPath: bgp.Path(64500)}}}},
		plain,
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestNextUpdateMatchesNext: decoding into a reused Update yields what a
// fresh decode yields, for every kind of record and every error a cut
// stream raises. Stale slices from the previous record are the failure
// buffer reuse adds, so each record lacks something the Update held.
func TestNextUpdateMatchesNext(t *testing.T) {
	raw := reuseStream(t)
	for cut := 0; cut <= len(raw); cut++ {
		sameAsNext(t, raw[:cut])
	}
}

// TestCutEndsCleanlyOnlyAtRecordBoundaries walks every cut offset of a
// multi-record stream: a stream that stops at a record boundary ends
// with io.EOF after the records before it; one that stops anywhere else,
// including right after a record header, is an error that is not
// io.EOF, through Next and through NextUpdate.
func TestCutEndsCleanlyOnlyAtRecordBoundaries(t *testing.T) {
	raw := reuseStream(t)
	boundaries := map[int]int{0: 0} // offset -> records before it
	for off, n := 0, 1; off < len(raw); n++ {
		off += 12 + int(binary.BigEndian.Uint32(raw[off+8:]))
		boundaries[off] = n
	}
	if len(boundaries) < 4 {
		t.Fatalf("stream holds %d records; the walk needs several", len(boundaries)-1)
	}
	entries := map[string]func(*Reader) (Record, error){
		"Next":       (*Reader).Next,
		"NextUpdate": func(r *Reader) (Record, error) { return r.NextUpdate(new(bgp.Update)) },
	}
	for name, next := range entries {
		for cut := 0; cut <= len(raw); cut++ {
			r := NewReader(bytes.NewReader(raw[:cut]))
			n := 0
			var err error
			for {
				if _, err = next(r); err != nil {
					break
				}
				n++
			}
			want, boundary := boundaries[cut]
			switch {
			case boundary && (!errors.Is(err, io.EOF) || n != want):
				t.Fatalf("%s, cut at record boundary %d: %d records, then %v; want %d, then EOF", name, cut, n, err, want)
			case !boundary && errors.Is(err, io.EOF):
				t.Fatalf("%s, cut at %d inside a record: reads as a clean end (%v)", name, cut, err)
			}
		}
	}
}
