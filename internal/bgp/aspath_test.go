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

func TestPrepend(t *testing.T) {
	p := Path(2, 1)
	q := p.Prepend(3, 3)
	want := []uint32{3, 3, 3, 2, 1}
	got := q.Sequence()
	if len(got) != len(want) {
		t.Fatalf("seq=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seq=%v want %v", got, want)
		}
	}
	// Original untouched.
	if p.HopLength() != 2 {
		t.Fatal("Prepend mutated receiver")
	}
	// Prepend onto empty and onto leading set.
	if e := (ASPath)(nil).Prepend(7, 2); e.HopLength() != 2 || e.Origin() != 7 {
		t.Fatalf("prepend onto empty: %v", e)
	}
	withSet := ASPath{{Type: SegmentSet, ASNs: []uint32{1, 2}}}
	ps := withSet.Prepend(9, 1)
	if ps[0].Type != SegmentSequence || ps[0].ASNs[0] != 9 {
		t.Fatalf("prepend onto set: %v", ps)
	}
	if n := Path(1).Prepend(2, 0); n.HopLength() != 1 {
		t.Fatal("prepend zero should be identity")
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

// Property: Prepend(a, n) always increases HopLength by n and keeps origin.
func TestProperty_Prepend(t *testing.T) {
	f := func(asns []uint32, a uint32, n uint8) bool {
		k := int(n % 8)
		p := Path(asns...)
		q := p.Prepend(a, k)
		return q.HopLength() == p.HopLength()+k && q.Origin() == p.Origin() || (len(asns) == 0 && q.Origin() == a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
