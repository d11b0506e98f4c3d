package netx

import (
	"cmp"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestMustPrefixMasks(t *testing.T) {
	p := MustPrefix("10.1.2.3/8")
	if p.String() != "10.0.0.0/8" {
		t.Fatalf("got %s, want 10.0.0.0/8", p)
	}
}

func TestMustPrefixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad prefix")
		}
	}()
	MustPrefix("not-a-prefix")
}

func TestCovers(t *testing.T) {
	cases := []struct {
		outer, inner string
		covers       bool
	}{
		{"10.0.0.0/8", "10.1.0.0/16", true},
		{"10.0.0.0/8", "10.0.0.0/8", true},
		{"10.1.0.0/16", "10.0.0.0/8", false},
		{"10.0.0.0/8", "11.0.0.0/16", false},
		{"0.0.0.0/0", "192.168.1.0/24", true},
		{"2001:db8::/32", "2001:db8:1::/48", true},
	}
	for _, c := range cases {
		o, i := MustPrefix(c.outer), MustPrefix(c.inner)
		if got := Covers(o, i); got != c.covers {
			t.Errorf("Covers(%s,%s)=%v want %v", c.outer, c.inner, got, c.covers)
		}
	}
}

func TestNthAddr(t *testing.T) {
	p := MustPrefix("192.0.2.0/24")
	if got := NthAddr(p, 1); got != V4(192, 0, 2, 1) {
		t.Fatalf("NthAddr(...,1)=%s", got)
	}
	if got := NthAddr(p, 256); got != V4(192, 0, 2, 0) {
		t.Fatalf("NthAddr should wrap, got %s", got)
	}
	p6 := MustPrefix("2001:db8::/64")
	a := NthAddr(p6, 5)
	if !p6.Contains(a) {
		t.Fatalf("NthAddr v6 escaped prefix: %s", a)
	}
}

// TestComparePrefixOrdering holds the canonical order: the invalid
// prefix first, then IPv4, then IPv6 — an IPv4-mapped IPv6 prefix is
// IPv6 — each by address, then length.
func TestComparePrefixOrdering(t *testing.T) {
	ordered := []netip.Prefix{
		{},
		MustPrefix("9.0.0.0/8"),
		MustPrefix("10.0.0.0/8"),
		MustPrefix("10.0.0.0/16"),
		MustPrefix("::ffff:10.0.0.0/104"),
		MustPrefix("2001:db8::/32"),
	}
	for i, a := range ordered {
		for j, b := range ordered {
			if got := ComparePrefix(a, b); got != cmp.Compare(i, j) {
				t.Errorf("ComparePrefix(%s, %s) = %d, want %d", a, b, got, cmp.Compare(i, j))
			}
		}
	}
}

// TestPrefixHashIsFNV1a holds PrefixHash to hash/fnv's New32a over
// the same 17 bytes, the masked address's 16 and the length byte, for
// random IPv4 and IPv6 prefixes and the invalid one, and holds it to
// no allocation.
func TestPrefixHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := []netip.Prefix{{}}
	for i := 0; i < 4000; i++ {
		var a [16]byte
		rng.Read(a[:])
		if i%2 == 0 {
			ps = append(ps, netip.PrefixFrom(netip.AddrFrom4([4]byte(a[:4])), rng.Intn(33)).Masked())
		} else {
			ps = append(ps, netip.PrefixFrom(netip.AddrFrom16(a), rng.Intn(129)).Masked())
		}
	}
	for _, p := range ps {
		h := fnv.New32a()
		a := p.Addr().As16()
		h.Write(a[:])
		h.Write([]byte{byte(p.Bits())})
		if got, want := PrefixHash(p), h.Sum32(); got != want {
			t.Fatalf("PrefixHash(%s) = %#x, want %#x", p, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { PrefixHash(ps[1]) }); n != 0 {
		t.Fatalf("PrefixHash allocates %.0f times", n)
	}
}

// get returns the value stored under exactly p: how the tests observe
// what Insert stored without going through longest-prefix match.
func (t *Trie[V]) get(p netip.Prefix) (V, bool) {
	n := t.root(p)
	for i := 0; i < p.Bits() && n != nil; i++ {
		n = n.child[bitAt(p.Addr(), i)]
	}
	if n == nil || !n.set {
		var zero V
		return zero, false
	}
	return n.val, true
}

func TestTrieInsertGetDelete(t *testing.T) {
	tr := NewTrie[int]()
	if added := tr.Insert(MustPrefix("10.0.0.0/8"), 1); !added {
		t.Fatal("first insert should add")
	}
	if added := tr.Insert(MustPrefix("10.0.0.0/8"), 2); added {
		t.Fatal("second insert should replace, not add")
	}
	if v, ok := tr.get(MustPrefix("10.0.0.0/8")); !ok || v != 2 {
		t.Fatalf("get=%v,%v", v, ok)
	}
	if _, ok := tr.get(MustPrefix("10.0.0.0/9")); ok {
		t.Fatal("sub-prefix should not be present")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len=%d want 1", tr.Len())
	}
}

func TestTrieLongestPrefixMatch(t *testing.T) {
	tr := NewTrie[string]()
	tr.Insert(MustPrefix("0.0.0.0/0"), "default")
	tr.Insert(MustPrefix("10.0.0.0/8"), "eight")
	tr.Insert(MustPrefix("10.1.0.0/16"), "sixteen")
	tr.Insert(MustPrefix("10.1.2.0/24"), "twentyfour")

	cases := []struct {
		addr string
		want string
	}{
		{"10.1.2.3", "twentyfour"},
		{"10.1.3.3", "sixteen"},
		{"10.9.9.9", "eight"},
		{"192.168.0.1", "default"},
	}
	for _, c := range cases {
		_, v, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if !ok || v != c.want {
			t.Errorf("Lookup(%s)=%q,%v want %q", c.addr, v, ok, c.want)
		}
	}
}

func TestTrieLookupMissAndFamilies(t *testing.T) {
	tr := NewTrie[int]()
	tr.Insert(MustPrefix("10.0.0.0/8"), 4)
	tr.Insert(MustPrefix("2001:db8::/32"), 6)
	if _, _, ok := tr.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("expected miss")
	}
	if _, v, ok := tr.Lookup(netip.MustParseAddr("2001:db8::1")); !ok || v != 6 {
		t.Fatal("v6 lookup failed")
	}
	if _, v, ok := tr.Lookup(netip.MustParseAddr("10.255.0.1")); !ok || v != 4 {
		t.Fatal("v4 lookup failed")
	}
}

// randomV4Prefix derives a masked IPv4 prefix from arbitrary quick inputs.
func randomV4Prefix(a, b, c, d byte, bits uint8) netip.Prefix {
	return netip.PrefixFrom(V4(a, b, c, d), int(bits%33)).Masked()
}

// Property: after inserting a prefix, looking up any address inside it
// returns a covering prefix.
func TestTrieProperty_LookupCovers(t *testing.T) {
	tr := NewTrie[int]()
	f := func(a, b, c, d byte, bits uint8) bool {
		p := randomV4Prefix(a, b, c, d, bits)
		tr.Insert(p, 1)
		got, _, ok := tr.Lookup(p.Addr())
		return ok && Covers(got, netip.PrefixFrom(p.Addr(), 32))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: trie longest-prefix match agrees with a linear scan over the
// same prefix set.
func TestTrieProperty_MatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := NewTrie[int]()
	var all []netip.Prefix
	for i := 0; i < 500; i++ {
		p := randomV4Prefix(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), uint8(rng.Intn(33)))
		if tr.Insert(p, i) {
			all = append(all, p)
		}
	}
	linear := func(a netip.Addr) (netip.Prefix, bool) {
		best, ok := netip.Prefix{}, false
		for _, p := range all {
			if p.Contains(a) && (!ok || p.Bits() > best.Bits()) {
				best, ok = p, true
			}
		}
		return best, ok
	}
	for i := 0; i < 1000; i++ {
		a := V4(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		wantP, wantOK := linear(a)
		gotP, _, gotOK := tr.Lookup(a)
		if wantOK != gotOK || (wantOK && wantP != gotP) {
			t.Fatalf("addr %s: trie=%v,%v linear=%v,%v", a, gotP, gotOK, wantP, wantOK)
		}
	}
}
