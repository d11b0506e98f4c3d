package bgp

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"

	"bgpworms/internal/netx"
)

func u32(v uint32) *uint32 { return &v }

func sampleUpdate() *Update {
	return &Update{
		Withdrawn: []netip.Prefix{netx.MustPrefix("198.51.100.0/24")},
		Attrs: PathAttributes{
			Origin:           OriginIGP,
			ASPath:           Path(65000, 3320, 1299),
			NextHop:          netip.MustParseAddr("192.0.2.1"),
			MED:              u32(50),
			LocalPref:        u32(120),
			Communities:      NewCommunitySet(C(3320, 9000), CommunityBlackhole, C(1299, 50)),
			Aggregator:       &Aggregator{ASN: 1299, Addr: netip.MustParseAddr("192.0.2.9")},
			LargeCommunities: []LargeCommunity{{GlobalAdmin: 206499, Data1: 1, Data2: 2}},
		},
		NLRI: []netip.Prefix{netx.MustPrefix("203.0.113.0/24"), netx.MustPrefix("10.0.0.0/8")},
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	in := sampleUpdate()
	wire, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := msg.(*Update)
	if !ok {
		t.Fatalf("decoded %T", msg)
	}
	if len(out.NLRI) != 2 || out.NLRI[0] != in.NLRI[0] || out.NLRI[1] != in.NLRI[1] {
		t.Fatalf("NLRI=%v", out.NLRI)
	}
	if len(out.Withdrawn) != 1 || out.Withdrawn[0] != in.Withdrawn[0] {
		t.Fatalf("Withdrawn=%v", out.Withdrawn)
	}
	a := out.Attrs
	if a.Origin != OriginIGP {
		t.Errorf("Origin=%v", a.Origin)
	}
	if a.ASPath.String() != "65000 3320 1299" {
		t.Errorf("ASPath=%s", a.ASPath)
	}
	if a.NextHop != in.Attrs.NextHop {
		t.Errorf("NextHop=%s", a.NextHop)
	}
	if a.MED == nil || *a.MED != 50 || a.LocalPref == nil || *a.LocalPref != 120 {
		t.Errorf("MED/LP=%v/%v", a.MED, a.LocalPref)
	}
	if len(a.Communities) != 3 || !a.Communities.Has(CommunityBlackhole) {
		t.Errorf("Communities=%v", a.Communities)
	}
	if !a.Communities.isSorted() {
		t.Error("communities not normalized on decode")
	}
	if a.Aggregator == nil || a.Aggregator.ASN != 1299 {
		t.Errorf("Aggregator=%v", a.Aggregator)
	}
	if len(a.LargeCommunities) != 1 || a.LargeCommunities[0].GlobalAdmin != 206499 {
		t.Errorf("LargeCommunities=%v", a.LargeCommunities)
	}
}

func TestUpdateReencodeStable(t *testing.T) {
	wire, err := sampleUpdate().Encode()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	wire2, err := msg.(*Update).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, wire2) {
		t.Fatal("re-encoding is not byte-stable")
	}
}

func TestIPv6ViaMPReach(t *testing.T) {
	in := &Update{
		Attrs: PathAttributes{
			Origin:         OriginIGP,
			ASPath:         Path(65001, 64501),
			MPReachNextHop: netip.MustParseAddr("2001:db8::1"),
			MPReachNLRI:    []netip.Prefix{netx.MustPrefix("2001:db8:1000::/48")},
			MPUnreachNLRI:  []netip.Prefix{netx.MustPrefix("2001:db8:2000::/48")},
		},
	}
	wire, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out := mustUpdate(t, wire)
	if len(out.Attrs.MPReachNLRI) != 1 || out.Attrs.MPReachNLRI[0] != in.Attrs.MPReachNLRI[0] {
		t.Fatalf("MPReach=%v", out.Attrs.MPReachNLRI)
	}
	if out.Attrs.MPReachNextHop != in.Attrs.MPReachNextHop {
		t.Fatalf("MPReachNextHop=%s", out.Attrs.MPReachNextHop)
	}
	if len(out.Attrs.MPUnreachNLRI) != 1 || out.Attrs.MPUnreachNLRI[0] != in.Attrs.MPUnreachNLRI[0] {
		t.Fatalf("MPUnreach=%v", out.Attrs.MPUnreachNLRI)
	}
	if got := out.AllAnnounced(); len(got) != 1 {
		t.Fatalf("AllAnnounced=%v", got)
	}
	if got := out.AllWithdrawn(); len(got) != 1 {
		t.Fatalf("AllWithdrawn=%v", got)
	}
}

func TestRejectDirectV6NLRI(t *testing.T) {
	u := &Update{NLRI: []netip.Prefix{netx.MustPrefix("2001:db8::/32")}}
	if _, err := u.Encode(); err == nil {
		t.Fatal("expected error for v6 in classic NLRI")
	}
	w := &Update{Withdrawn: []netip.Prefix{netx.MustPrefix("2001:db8::/32")}}
	if _, err := w.Encode(); err == nil {
		t.Fatal("expected error for v6 in classic withdrawals")
	}
}

func TestUnknownAttributePreserved(t *testing.T) {
	in := sampleUpdate()
	in.Attrs.Unknown = []RawAttr{{Flags: flagOptional | flagTransitive, Type: 99, Value: []byte{1, 2, 3}}}
	wire, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out := mustUpdate(t, wire)
	if len(out.Attrs.Unknown) != 1 || out.Attrs.Unknown[0].Type != 99 || !bytes.Equal(out.Attrs.Unknown[0].Value, []byte{1, 2, 3}) {
		t.Fatalf("Unknown=%v", out.Attrs.Unknown)
	}
}

func TestOpenKeepaliveNotification(t *testing.T) {
	o := &Open{ASN: 65001, HoldTime: 90, RouterID: netip.MustParseAddr("10.0.0.1")}
	wire, err := o.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	oo := m.(*Open)
	if oo.ASN != 65001 || oo.HoldTime != 90 || oo.Version != 4 {
		t.Fatalf("Open=%+v", oo)
	}

	// 4-octet ASN goes out as AS_TRANS in the 2-byte field.
	o4 := &Open{ASN: 4200000001, RouterID: netip.MustParseAddr("10.0.0.1")}
	wire, err = o4.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m, _ = DecodeMessage(wire)
	if m.(*Open).ASN != uint32(ASTrans) {
		t.Fatalf("AS_TRANS expected, got %d", m.(*Open).ASN)
	}

	kw, err := Keepalive{}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := DecodeMessage(kw); err != nil || m.Type() != MsgTypeKeepalive {
		t.Fatalf("keepalive: %v %v", m, err)
	}

	n := &Notification{Code: 6, Subcode: 2, Data: []byte("bye")}
	nw, err := n.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m, err = DecodeMessage(nw)
	if err != nil {
		t.Fatal(err)
	}
	nn := m.(*Notification)
	if nn.Code != 6 || nn.Subcode != 2 || string(nn.Data) != "bye" {
		t.Fatalf("Notification=%+v", nn)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, _ := sampleUpdate().Encode()

	t.Run("short", func(t *testing.T) {
		if _, err := DecodeMessage(valid[:10]); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("bad marker", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] = 0
		if _, err := DecodeMessage(bad); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		if _, err := DecodeMessage(valid[:len(valid)-3]); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("bad type", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[18] = 77
		if _, err := DecodeMessage(bad); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("keepalive with body", func(t *testing.T) {
		w, _ := Keepalive{}.Encode()
		w[16], w[17] = 0, 20
		w = append(w, 0)
		if _, err := DecodeMessage(w); err == nil {
			t.Fatal("want error")
		}
	})
}

func TestAttributeDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"truncated header":     {0x40},
		"truncated ext header": {0x50, 1, 0},
		"body truncated":       {0x40, 1, 5, 0},
		"bad origin len":       {0x40, 1, 2, 0, 0},
		"bad nexthop len":      {0x40, 3, 2, 1, 2},
		"bad med len":          {0x80, 4, 1, 9},
		"bad lp len":           {0x40, 5, 1, 9},
		"bad aggregator len":   {0xC0, 7, 2, 0, 0},
		"bad communities len":  {0xC0, 8, 3, 0, 0, 0},
		"bad large len":        {0xC0, 32, 4, 0, 0, 0, 0},
		"bad aspath seg type":  {0x40, 2, 6, 9, 1, 0, 0, 0, 1},
		"truncated aspath":     {0x40, 2, 3, 2, 2, 0},
	}
	for name, b := range cases {
		if _, err := DecodeAttributes(b); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestMessageSizeLimit(t *testing.T) {
	var cs []Community
	for i := 0; i < 1100; i++ {
		cs = append(cs, C(uint16(i), uint16(i)))
	}
	u := &Update{
		Attrs: PathAttributes{ASPath: Path(1), NextHop: netip.MustParseAddr("10.0.0.1"), Communities: NewCommunitySet(cs...)},
		NLRI:  []netip.Prefix{netx.MustPrefix("10.0.0.0/8")},
	}
	if _, err := u.Encode(); err == nil {
		t.Fatal("4400+ byte message must exceed the 4096 cap")
	}
}

func mustUpdate(t *testing.T, wire []byte) *Update {
	t.Helper()
	m, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := m.(*Update)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	return u
}

// Property: any update built from generated prefixes/communities round-trips.
func TestProperty_UpdateRoundTrip(t *testing.T) {
	f := func(seed uint32, nComm uint8, a, b byte, bits uint8) bool {
		var cs []Community
		for i := 0; i < int(nComm%40); i++ {
			cs = append(cs, Community(seed+uint32(i)*2654435761))
		}
		p := netip.PrefixFrom(netx.V4(a%224, b, 0, 0), int(8+bits%17)).Masked()
		u := &Update{
			Attrs: PathAttributes{
				Origin:      OriginIGP,
				ASPath:      Path(seed%64000+1, seed%1000+1),
				NextHop:     netip.MustParseAddr("192.0.2.1"),
				Communities: NewCommunitySet(cs...),
			},
			NLRI: []netip.Prefix{p},
		}
		wire, err := u.Encode()
		if err != nil {
			return false
		}
		m, err := DecodeMessage(wire)
		if err != nil {
			return false
		}
		out := m.(*Update)
		if len(out.NLRI) != 1 || out.NLRI[0] != p {
			return false
		}
		if len(out.Attrs.Communities) != len(u.Attrs.Communities) {
			return false
		}
		return out.Attrs.ASPath.String() == u.Attrs.ASPath.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
