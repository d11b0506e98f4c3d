package mrt

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
)

var t0 = time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)

func sampleMessage(extended bool) *BGP4MPMessage {
	return &BGP4MPMessage{
		Timestamp:    t0.Add(123456 * time.Microsecond),
		ExtendedTime: extended,
		PeerAS:       64500,
		LocalAS:      65001,
		IfIndex:      3,
		PeerIP:       netip.MustParseAddr("192.0.2.7"),
		LocalIP:      netip.MustParseAddr("192.0.2.1"),
		Message: &bgp.Update{
			Attrs: bgp.PathAttributes{
				Origin:      bgp.OriginIGP,
				ASPath:      bgp.Path(64500, 3320, 1299),
				NextHop:     netip.MustParseAddr("192.0.2.7"),
				Communities: bgp.NewCommunitySet(bgp.C(3320, 2000), bgp.C(1299, 30)),
			},
			NLRI: []netip.Prefix{netx.MustPrefix("203.0.113.0/24")},
		},
	}
}

func roundTrip(t *testing.T, recs ...Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(recs) {
		t.Fatalf("Count=%d want %d", w.Count(), len(recs))
	}
	r := NewReader(&buf)
	var out []Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	if len(out) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(out), len(recs))
	}
	return out
}

func TestBGP4MPMessageRoundTrip(t *testing.T) {
	in := sampleMessage(false)
	out := roundTrip(t, in)[0].(*BGP4MPMessage)
	if out.PeerAS != in.PeerAS || out.LocalAS != in.LocalAS || out.IfIndex != in.IfIndex {
		t.Fatalf("session fields: %+v", out)
	}
	if out.PeerIP != in.PeerIP || out.LocalIP != in.LocalIP {
		t.Fatalf("addresses: %s %s", out.PeerIP, out.LocalIP)
	}
	// Non-ET record truncates to second precision.
	if !out.Timestamp.Equal(t0) {
		t.Fatalf("timestamp=%s want %s", out.Timestamp, t0)
	}
	u := out.Message.(*bgp.Update)
	if len(u.NLRI) != 1 || u.NLRI[0].String() != "203.0.113.0/24" {
		t.Fatalf("NLRI=%v", u.NLRI)
	}
	if !u.Attrs.Communities.Has(bgp.C(3320, 2000)) {
		t.Fatalf("communities=%v", u.Attrs.Communities)
	}
}

func TestBGP4MPETMicroseconds(t *testing.T) {
	in := sampleMessage(true)
	out := roundTrip(t, in)[0].(*BGP4MPMessage)
	if !out.Timestamp.Equal(t0.Add(123456 * time.Microsecond)) {
		t.Fatalf("timestamp=%s", out.Timestamp)
	}
}

func TestBGP4MPIPv6Session(t *testing.T) {
	in := sampleMessage(false)
	in.PeerIP = netip.MustParseAddr("2001:db8::7")
	in.LocalIP = netip.MustParseAddr("2001:db8::1")
	in.Message = &bgp.Update{
		Attrs: bgp.PathAttributes{
			Origin:         bgp.OriginIGP,
			ASPath:         bgp.Path(64500),
			MPReachNextHop: netip.MustParseAddr("2001:db8::7"),
			MPReachNLRI:    []netip.Prefix{netx.MustPrefix("2001:db8:f::/48")},
		},
	}
	out := roundTrip(t, in)[0].(*BGP4MPMessage)
	if out.PeerIP != in.PeerIP {
		t.Fatalf("peer ip=%s", out.PeerIP)
	}
	u := out.Message.(*bgp.Update)
	if len(u.Attrs.MPReachNLRI) != 1 {
		t.Fatalf("v6 NLRI lost: %v", u.Attrs.MPReachNLRI)
	}
}

func TestStateChangeRoundTrip(t *testing.T) {
	// RFC 6396 FSM states: OpenConfirm → Established.
	const StateOpenConfirm, StateEstablished = 5, 6
	in := &StateChange{
		Timestamp: t0, PeerAS: 64500, LocalAS: 65001,
		PeerIP: netip.MustParseAddr("192.0.2.7"), LocalIP: netip.MustParseAddr("192.0.2.1"),
		OldState: StateOpenConfirm, NewState: StateEstablished,
	}
	out := roundTrip(t, in)[0].(*StateChange)
	if out.OldState != StateOpenConfirm || out.NewState != StateEstablished || out.PeerAS != 64500 {
		t.Fatalf("%+v", out)
	}
}

func TestPeerIndexTableAndRIBRoundTrip(t *testing.T) {
	pit := &PeerIndexTable{
		Timestamp:   t0,
		CollectorID: netip.MustParseAddr("198.51.100.1"),
		ViewName:    "rrc00",
		Peers: []PeerEntry{
			{BGPID: netip.MustParseAddr("10.0.0.1"), IP: netip.MustParseAddr("192.0.2.7"), AS: 64500},
			{BGPID: netip.MustParseAddr("10.0.0.2"), IP: netip.MustParseAddr("2001:db8::9"), AS: 4200000999},
		},
	}
	rib := &RIB{
		Timestamp: t0,
		Sequence:  7,
		Prefix:    netx.MustPrefix("203.0.113.0/24"),
		Entries: []RIBEntry{{
			PeerIndex:      1,
			OriginatedTime: t0.Add(-time.Hour),
			Attrs: bgp.PathAttributes{
				Origin:      bgp.OriginIGP,
				ASPath:      bgp.Path(64500, 65010),
				NextHop:     netip.MustParseAddr("192.0.2.7"),
				Communities: bgp.NewCommunitySet(bgp.C(64500, 100)),
			},
		}},
	}
	rib6 := &RIB{
		Timestamp: t0, Sequence: 8, Prefix: netx.MustPrefix("2001:db8::/32"),
		Entries: []RIBEntry{{PeerIndex: 0, OriginatedTime: t0, Attrs: bgp.PathAttributes{ASPath: bgp.Path(64500)}}},
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range []Record{pit, rib, rib6} {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)

	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	gotPIT := rec.(*PeerIndexTable)
	if gotPIT.ViewName != "rrc00" || len(gotPIT.Peers) != 2 {
		t.Fatalf("PIT=%+v", gotPIT)
	}
	if gotPIT.Peers[1].AS != 4200000999 || gotPIT.Peers[1].IP != netip.MustParseAddr("2001:db8::9") {
		t.Fatalf("peer[1]=%+v", gotPIT.Peers[1])
	}
	if len(r.PeerTable()) != 2 {
		t.Fatal("reader did not retain peer table")
	}

	rec, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	gotRIB := rec.(*RIB)
	if gotRIB.Prefix.String() != "203.0.113.0/24" || gotRIB.Sequence != 7 {
		t.Fatalf("RIB=%+v", gotRIB)
	}
	e := gotRIB.Entries[0]
	if e.PeerIndex != 1 || !e.OriginatedTime.Equal(t0.Add(-time.Hour)) {
		t.Fatalf("entry=%+v", e)
	}
	if e.Attrs.ASPath.String() != "64500 65010" || !e.Attrs.Communities.Has(bgp.C(64500, 100)) {
		t.Fatalf("attrs=%+v", e.Attrs)
	}

	rec, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	got6 := rec.(*RIB)
	if got6.RecordSubtype() != SubtypeRIBIPv6Unicast || got6.Prefix.String() != "2001:db8::/32" {
		t.Fatalf("RIB6=%+v", got6)
	}

	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReaderErrors(t *testing.T) {
	t.Run("truncated header", func(t *testing.T) {
		r := NewReader(bytes.NewReader([]byte{1, 2, 3}))
		if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("empty is clean EOF", func(t *testing.T) {
		r := NewReader(bytes.NewReader(nil))
		if _, err := r.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("oversized record", func(t *testing.T) {
		hdr := make([]byte, 12)
		hdr[8], hdr[9], hdr[10], hdr[11] = 0xFF, 0xFF, 0xFF, 0xFF
		r := NewReader(bytes.NewReader(hdr))
		if _, err := r.Next(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(sampleMessage(false)); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()[:buf.Len()-5]
		r := NewReader(bytes.NewReader(data))
		if _, err := r.Next(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		hdr := make([]byte, 12)
		hdr[5] = 99 // type
		r := NewReader(bytes.NewReader(hdr))
		if _, err := r.Next(); err == nil {
			t.Fatal("want error")
		}
	})
}

func TestManyRecordsStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 500
	for i := 0; i < n; i++ {
		m := sampleMessage(i%2 == 0)
		m.PeerAS = uint32(64500 + i%10)
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	count := 0
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.(*BGP4MPMessage).PeerAS != uint32(64500+count%10) {
			t.Fatalf("record %d peerAS mismatch", count)
		}
		count++
	}
	if count != n {
		t.Fatalf("read %d records, want %d", count, n)
	}
}
