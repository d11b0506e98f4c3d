package bgp

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCommunityParts(t *testing.T) {
	c := C(3130, 411)
	if c.ASN() != 3130 || c.Value() != 411 {
		t.Fatalf("parts=%d:%d", c.ASN(), c.Value())
	}
	if c.String() != "3130:411" {
		t.Fatalf("String=%q", c)
	}
}

func TestParseCommunity(t *testing.T) {
	cases := []struct {
		in   string
		want Community
		ok   bool
	}{
		{"3130:411", C(3130, 411), true},
		{"0:0", 0, true},
		{"65535:666", CommunityBlackhole, true},
		{"no-export", CommunityNoExport, true},
		{"NO-EXPORT", CommunityNoExport, true},
		{"no-advertise", CommunityNoAdvertise, true},
		{"no-peer", CommunityNoPeer, true},
		{"blackhole", CommunityBlackhole, true},
		{"65536:1", 0, false},
		{"1:65536", 0, false},
		{"nocolon", 0, false},
		{"a:b", 0, false},
	}
	for _, c := range cases {
		got, err := ParseCommunity(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseCommunity(%q) err=%v ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseCommunity(%q)=%v want %v", c.in, got, c.want)
		}
	}
}

// TestProperty_CommunityStringParseRoundTrip: every 32-bit community
// survives String → ParseCommunity and MarshalText → UnmarshalText
// unchanged.
func TestProperty_CommunityStringParseRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		c := Community(v)
		back, err := ParseCommunity(c.String())
		if err != nil || back != c {
			return false
		}
		b, err := c.MarshalText()
		if err != nil {
			return false
		}
		var u Community
		if err := u.UnmarshalText(b); err != nil || u != c {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWellKnownNames pins the symbolic-name round trip: Name/Display on
// the well-known constants, case- and separator-insensitive parsing,
// and "" for ordinary communities.
func TestWellKnownNames(t *testing.T) {
	cases := []struct {
		c    Community
		name string
	}{
		{CommunityNoExport, "NO_EXPORT"},
		{CommunityNoAdvertise, "NO_ADVERTISE"},
		{CommunityNoExportSubconfed, "NO_EXPORT_SUBCONFED"},
		{CommunityNoPeer, "NOPEER"},
		{CommunityBlackhole, "BLACKHOLE"},
	}
	for _, tc := range cases {
		if tc.c.Name() != tc.name || tc.c.Display() != tc.name {
			t.Errorf("%s: Name=%q Display=%q, want %q", tc.c, tc.c.Name(), tc.c.Display(), tc.name)
		}
		for _, spelling := range []string{
			tc.name,
			strings.ToLower(tc.name),
			strings.ReplaceAll(strings.ToLower(tc.name), "_", "-"),
		} {
			got, err := ParseCommunity(spelling)
			if err != nil || got != tc.c {
				t.Errorf("ParseCommunity(%q) = (%v, %v), want %s", spelling, got, err, tc.c)
			}
		}
		// The numeric form parses back to the same value too.
		if got, err := ParseCommunity(tc.c.String()); err != nil || got != tc.c {
			t.Errorf("numeric round trip of %s = (%s, %v)", tc.c, got, err)
		}
	}
	if C(3356, 666).Name() != "" {
		t.Error("ordinary community has a well-known name")
	}
	if C(3356, 666).Display() != "3356:666" {
		t.Errorf("Display=%q", C(3356, 666).Display())
	}
}

func TestWellKnownValues(t *testing.T) {
	if CommunityNoExport.String() != "65535:65281" {
		t.Errorf("NoExport=%s", CommunityNoExport)
	}
	if CommunityBlackhole.String() != "65535:666" {
		t.Errorf("Blackhole=%s", CommunityBlackhole)
	}
	if !CommunityBlackhole.IsWellKnown() || !CommunityBlackhole.IsBlackhole() {
		t.Error("blackhole classification wrong")
	}
	if !C(2914, 666).IsBlackhole() {
		t.Error("provider :666 should classify as blackhole")
	}
	if C(2914, 421).IsBlackhole() {
		t.Error("2914:421 is not blackhole")
	}
	if C(2914, 421).IsWellKnown() {
		t.Error("2914:421 is not well-known")
	}
	if !C(0, 7).IsWellKnown() {
		t.Error("0:* is reserved")
	}
}

// isSorted verifies the set invariant.
func (s CommunitySet) isSorted() bool {
	return sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] })
}

// RemoveIf returns the set without any community matching pred. The
// set tests use it to take members out again; no product code removes
// communities from a set.
func (s CommunitySet) RemoveIf(pred func(Community) bool) CommunitySet {
	out := s[:0]
	for _, c := range s {
		if !pred(c) {
			out = append(out, c)
		}
	}
	return out
}

// is matches exactly c, for RemoveIf.
func is(c Community) func(Community) bool {
	return func(x Community) bool { return x == c }
}

func TestCommunitySetOps(t *testing.T) {
	s := NewCommunitySet(C(3, 3), C(1, 1), C(2, 2), C(1, 1))
	if len(s) != 3 || !s.isSorted() {
		t.Fatalf("set=%v", s)
	}
	if !s.Has(C(2, 2)) || s.Has(C(4, 4)) {
		t.Fatal("Has wrong")
	}
	s = s.Add(C(2, 2))
	if len(s) != 3 {
		t.Fatal("duplicate add grew set")
	}
	s = s.RemoveIf(is(C(2, 2)))
	if s.Has(C(2, 2)) || len(s) != 2 {
		t.Fatal("RemoveIf failed")
	}
	s = s.RemoveIf(is(C(9, 9))) // absent: no-op
	if len(s) != 2 {
		t.Fatal("RemoveIf of absent changed set")
	}
}

func TestCommunitySetRemoveASN(t *testing.T) {
	s := NewCommunitySet(C(10, 1), C(10, 2), C(20, 1), C(30, 5))
	s = s.RemoveIf(func(c Community) bool { return c.ASN() == 10 })
	if len(s) != 2 || s.Has(C(10, 1)) || s.Has(C(10, 2)) {
		t.Fatalf("RemoveIf by ASN: %v", s)
	}
}

func TestCommunitySetASNs(t *testing.T) {
	s := NewCommunitySet(C(10, 1), C(10, 2), C(20, 1), C(5, 9))
	asns := s.ASNs()
	want := []uint16{5, 10, 20}
	if len(asns) != len(want) {
		t.Fatalf("ASNs=%v", asns)
	}
	for i := range want {
		if asns[i] != want[i] {
			t.Fatalf("ASNs=%v want %v", asns, want)
		}
	}
}

func TestCommunitySetCloneIndependence(t *testing.T) {
	s := NewCommunitySet(C(1, 1), C(2, 2))
	c := s.Clone()
	c = c.Add(C(3, 3))
	if s.Has(C(3, 3)) {
		t.Fatal("clone mutated original")
	}
	var nilSet CommunitySet
	if nilSet.Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

func TestCommunitySetString(t *testing.T) {
	s := NewCommunitySet(C(2, 2), C(1, 1))
	if s.String() != "1:1 2:2" {
		t.Fatalf("String=%q", s.String())
	}
}

// Property: Add keeps the set sorted and unique for arbitrary inserts.
func TestProperty_CommunitySetSortedUnique(t *testing.T) {
	f := func(vals []uint32) bool {
		var s CommunitySet
		for _, v := range vals {
			s = s.Add(Community(v))
		}
		if !s.isSorted() {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				return false
			}
		}
		for _, v := range vals {
			if !s.Has(Community(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add then RemoveIf restores non-membership.
func TestProperty_CommunityAddRemove(t *testing.T) {
	f := func(base []uint32, x uint32) bool {
		var s CommunitySet
		for _, v := range base {
			if Community(v) != Community(x) {
				s = s.Add(Community(v))
			}
		}
		before := len(s)
		s = s.Add(Community(x))
		s = s.RemoveIf(is(Community(x)))
		return !s.Has(Community(x)) && len(s) == before && s.isSorted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunitySetAddKeepsOrderAgainstSort(t *testing.T) {
	vals := []Community{C(9, 9), C(1, 2), C(5, 0), C(1, 1), C(65535, 666)}
	var s CommunitySet
	for _, v := range vals {
		s = s.Add(v)
	}
	ref := append([]Community(nil), vals...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for i := range ref {
		if s[i] != ref[i] {
			t.Fatalf("set=%v ref=%v", s, ref)
		}
	}
}
