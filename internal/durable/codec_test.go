package durable

import (
	"net/netip"
	"strings"
	"testing"
	"time"
	"unsafe"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
)

func sampleEvents() []feed.Event {
	return []feed.Event{
		{
			Seq:    1,
			Time:   time.Date(2018, 4, 3, 12, 30, 0, 123456789, time.UTC),
			Source: "rrc00",
			PeerAS: 64512,
			Prefix: netip.MustParsePrefix("203.0.113.0/24"),
			ASPath: []uint32{64512, 3356, 65001},
			Communities: bgp.NewCommunitySet(
				bgp.C(3356, 666), bgp.C(65001, 100),
			),
		},
		{
			// Withdrawal: no path, no communities, zero (synthesized) time.
			Seq:      7,
			Source:   "tap",
			PeerAS:   64512,
			Prefix:   netip.MustParsePrefix("203.0.113.0/24"),
			Withdraw: true,
		},
		{
			// IPv6 host route.
			Seq:    9,
			Time:   time.Unix(1522540800, 0).UTC(),
			PeerAS: 65000,
			Prefix: netip.MustParsePrefix("2001:db8::1/128"),
			ASPath: []uint32{65000, 65001},
		},
		{
			// No prefix at all (a malformed-but-representable event).
			Seq:    10,
			Source: "odd",
			PeerAS: 1,
		},
		{
			// Default-route corner: zero address, zero bits.
			Seq:         11,
			PeerAS:      2,
			Prefix:      netip.MustParsePrefix("0.0.0.0/0"),
			ASPath:      []uint32{2},
			Communities: bgp.NewCommunitySet(bgp.C(2, 666)),
		},
	}
}

func eventsEqual(a, b *feed.Event) bool {
	if a.Seq != b.Seq || !a.Time.Equal(b.Time) || a.Source != b.Source ||
		a.PeerAS != b.PeerAS || a.Prefix != b.Prefix || a.Withdraw != b.Withdraw ||
		len(a.ASPath) != len(b.ASPath) || len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	for i := range a.Communities {
		if a.Communities[i] != b.Communities[i] {
			return false
		}
	}
	return true
}

func TestEventCodecRoundTrip(t *testing.T) {
	for i, ev := range sampleEvents() {
		buf := EncodeEvent(nil, &ev)
		got, err := DecodeEvent(buf)
		if err != nil {
			t.Fatalf("event %d: decode: %v", i, err)
		}
		if !eventsEqual(&ev, &got) {
			t.Fatalf("event %d round-trip mismatch:\nin  %+v\nout %+v", i, ev, got)
		}
	}
}

// TestDecodeEventReusesAnEqualSource: the replay decoder hands back the
// source it is given when the record's is equal, and a new string when
// it is not; the event is the same either way.
func TestDecodeEventReusesAnEqualSource(t *testing.T) {
	ev := sampleEvents()[0]
	buf := EncodeEvent(nil, &ev)
	prev := strings.Clone(ev.Source)
	got, err := decodeEvent(buf, prev, nil)
	if err != nil || !eventsEqual(&ev, &got) {
		t.Fatalf("decode with an equal source: %+v, %v", got, err)
	}
	if unsafe.StringData(got.Source) != unsafe.StringData(prev) {
		t.Error("an equal source was allocated again")
	}
	if got, err = decodeEvent(buf, "other", nil); err != nil || got.Source != ev.Source {
		t.Fatalf("decode with another source: source %q, %v", got.Source, err)
	}
	with := testing.AllocsPerRun(100, func() { decodeEvent(buf, prev, nil) })
	without := testing.AllocsPerRun(100, func() { decodeEvent(buf, "", nil) })
	if with != without-1 {
		t.Errorf("decode allocates %v times with the source to reuse, %v without", with, without)
	}
}

// TestDecodeEventRejectsDamage walks every truncation point and a byte
// flip through the decoder: each must error (or decode to a valid
// event, for flips that stay in-grammar), never panic.
func TestDecodeEventRejectsDamage(t *testing.T) {
	for _, ev := range sampleEvents() {
		buf := EncodeEvent(nil, &ev)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := DecodeEvent(buf[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded cleanly", cut, len(buf))
			}
		}
		for i := range buf {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 0x55
			_, _ = DecodeEvent(mut) // must not panic
		}
	}
}

func TestDecodeEventRejectsTrailing(t *testing.T) {
	ev := sampleEvents()[0]
	buf := append(EncodeEvent(nil, &ev), 0x00)
	if _, err := DecodeEvent(buf); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
}
