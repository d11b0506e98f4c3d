package bgp

import (
	"testing"
	"testing/quick"
)

func TestPathBasics(t *testing.T) {
	p := Path(4, 3, 2, 1)
	if p.HopLength() != 4 {
		t.Fatalf("HopLength=%d", p.HopLength())
	}
	if p.Origin() != 1 {
		t.Fatalf("origin=%d", p.Origin())
	}
	if !p.Contains(3) || p.Contains(9) {
		t.Fatal("Contains wrong")
	}
	var empty ASPath
	if empty.Origin() != 0 || empty.HopLength() != 0 {
		t.Fatal("empty path accessors wrong")
	}
	if Path() != nil {
		t.Fatal("Path() should be nil")
	}
}

func TestHopLengthCountsSetAsOne(t *testing.T) {
	p := ASPath{
		{Type: SegmentSequence, ASNs: []uint32{10, 20}},
		{Type: SegmentSet, ASNs: []uint32{30, 40, 50}},
	}
	if p.HopLength() != 3 {
		t.Fatalf("HopLength=%d want 3", p.HopLength())
	}
}

func TestStripPrepending(t *testing.T) {
	got := StripPrepending(nil, []uint32{3, 3, 3, 2, 2, 1})
	want := []uint32{3, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Non-consecutive repeats (poisoning) survive.
	if len(StripPrepending(nil, []uint32{3, 2, 3, 1})) != 4 {
		t.Fatal("non-consecutive repeats must be kept")
	}
}

func TestIsPrivateASN(t *testing.T) {
	cases := []struct {
		asn  uint32
		want bool
	}{
		{0, true}, {1, false}, {64511, false}, {64512, true}, {65534, true},
		{65535, true}, {65536, false}, {4199999999, false}, {4200000000, true},
		{4294967294, true}, {3320, false},
	}
	for _, c := range cases {
		if got := IsPrivateASN(c.asn); got != c.want {
			t.Errorf("IsPrivateASN(%d)=%v want %v", c.asn, got, c.want)
		}
	}
}

func TestASPathString(t *testing.T) {
	p := ASPath{
		{Type: SegmentSequence, ASNs: []uint32{10, 20}},
		{Type: SegmentSet, ASNs: []uint32{30, 40}},
	}
	if p.String() != "10 20 {30,40}" {
		t.Fatalf("String=%q", p.String())
	}
}

// Property: StripPrepending never lengthens the sequence and preserves the
// origin and first AS.
func TestProperty_StripPrepending(t *testing.T) {
	f := func(asns []uint32) bool {
		if len(asns) == 0 {
			return true
		}
		s := StripPrepending(nil, asns)
		if len(s) > len(asns) || len(s) == 0 {
			return false
		}
		return s[0] == asns[0] && s[len(s)-1] == asns[len(asns)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
