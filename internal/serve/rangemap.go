package serve

import "net/netip"

// RangeMap is the prefix-range ownership function for the sharded
// daemon: the address space is cut into N contiguous ranges by the
// first 32 bits of the address, and a prefix belongs to exactly one
// shard. Contiguity (instead of hashing) keeps each shard's slice of
// the routing table a literal range — operators can say "shard 2 owns
// 85.0.0.0 through 170.255.255.255" — and covering prefixes land near
// their more-specifics.
//
// Every shard daemon and the frontend must agree on N; ownership is a
// pure function, so there is no assignment state to coordinate.
//
// Owner is the fleet's only answer to "who owns this prefix", and every
// prefix, the invalid one included, has exactly one owner: the shard
// store journals an event only if Owner gives its masked prefix to the
// shard (durable.Options.Owner), walreshard routes every record,
// checkpoint window and alert by Owner over the new count
// (durable.ReshardOptions.Owner), and the frontend routes /prefix/{p}
// by it. No module special-cases a prefix, so the shards' slices are
// disjoint and sum to the feed.
type RangeMap struct {
	n int
}

// NewRangeMap builds the ownership map for n shards (n < 1 is treated
// as 1).
func NewRangeMap(n int) *RangeMap {
	if n < 1 {
		n = 1
	}
	return &RangeMap{n: n}
}

// Owner maps a prefix to its shard index: the top 32 address bits
// scaled into [0, n). IPv4 uses the whole address; IPv6 uses its top
// 32 bits (enough spread for range semantics, and cheap). An
// IPv4-mapped IPv6 address (::ffff:a.b.c.d) is unmapped first so it
// lands on the owner of the equivalent IPv4 prefix — Is4 is false for
// mapped addresses, and without the unmap their leading zero bytes
// would send every one of them to shard 0. The invalid prefix (an
// event without one) maps to shard 0, like any prefix to one shard.
func (m *RangeMap) Owner(p netip.Prefix) int {
	if !p.IsValid() {
		return 0
	}
	addr := p.Addr().Unmap()
	var top uint32
	if addr.Is4() {
		a := addr.As4()
		top = uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	} else {
		a := addr.As16()
		top = uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	}
	return int(uint64(top) * uint64(m.n) >> 32)
}

// OwnerFunc returns the membership predicate for one shard — the shape
// durable.Options.Owner takes.
func (m *RangeMap) OwnerFunc(index int) func(netip.Prefix) bool {
	return func(p netip.Prefix) bool { return m.Owner(p) == index }
}
