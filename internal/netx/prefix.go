// Package netx provides IP prefix utilities shared by the BGP codec, the
// routing simulator, and the measurement pipeline: parsing helpers, the
// sub-prefix test and canonical prefix order, and a binary trie supporting
// longest-prefix match, which backs every FIB in the simulator.
package netx

import (
	"cmp"
	"fmt"
	"net/netip"
)

// MustPrefix parses s as a CIDR prefix and panics on error. It is intended
// for tests, examples, and statically-known constants.
func MustPrefix(s string) netip.Prefix {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		panic(fmt.Sprintf("netx: bad prefix %q: %v", s, err))
	}
	return p.Masked()
}

// V4 builds an IPv4 address from four octets.
func V4(a, b, c, d byte) netip.Addr {
	return netip.AddrFrom4([4]byte{a, b, c, d})
}

// PrefixV4 builds a masked IPv4 prefix from four octets and a bit length.
func PrefixV4(a, b, c, d byte, bits int) netip.Prefix {
	return netip.PrefixFrom(V4(a, b, c, d), bits).Masked()
}

// Covers reports whether outer contains every address of inner, i.e. inner
// is equal to or more specific than outer.
func Covers(outer, inner netip.Prefix) bool {
	return outer.Bits() <= inner.Bits() && outer.Contains(inner.Addr())
}

// NthAddr returns the n-th address inside p (0-based), wrapping within the
// prefix if n exceeds its size. It is used by workload generators to pick
// probe targets deterministically.
func NthAddr(p netip.Prefix, n uint64) netip.Addr {
	hostBits := uint(p.Addr().BitLen() - p.Bits())
	if hostBits < 64 && hostBits > 0 {
		n %= uint64(1) << hostBits
	}
	if p.Addr().Is4() {
		b := p.Addr().As4()
		v := be32(b[:]) + uint32(n)
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	b := p.Addr().As16()
	// Add n to the low 64 bits; sufficient for generator use.
	lo := be64(b[8:]) + n
	putBE64(b[8:], lo)
	return netip.AddrFrom16(b)
}

// bitAt returns bit i (0 = most significant) of addr.
func bitAt(addr netip.Addr, i int) byte {
	if addr.Is4() {
		b := addr.As4()
		return (b[i/8] >> (7 - i%8)) & 1
	}
	b := addr.As16()
	return (b[i/8] >> (7 - i%8)) & 1
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func be64(b []byte) uint64 {
	return uint64(be32(b))<<32 | uint64(be32(b[4:]))
}

func putBE64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// ComparePrefix orders prefixes by address, then length: the invalid
// prefix first, then IPv4, then IPv6 (an IPv4-mapped address is IPv6).
// It is the one canonical prefix order: RIB dumps, checkpoint windows
// and dictionary exports all sort by it.
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// PrefixHash is FNV-1a over p's 16-byte address and its length byte:
// what hash/fnv's New32a returns for those 17 bytes, without
// allocating. Pass a masked prefix, so that equal prefixes hash equal.
// It is the one prefix hash: the watch engine's shard and the archive
// planner's partition both reduce it.
func PrefixHash(p netip.Prefix) uint32 {
	a := p.Addr().As16()
	h := uint32(2166136261)
	for _, b := range a {
		h = (h ^ uint32(b)) * 16777619
	}
	return (h ^ uint32(byte(p.Bits()))) * 16777619
}
