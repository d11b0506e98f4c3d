package router

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"bgpworms/internal/bgp"
	"bgpworms/internal/policy"
)

// Intern tables hash-cons the AS paths and community sets of an arena's
// records: equal content gets the same id, and each distinct value is
// stored once, as a canonical copy nobody writes. Update traffic repeats
// itself — most exports re-announce a path some other route already
// carries, most imports keep the sender's communities — so a network
// holds far fewer distinct paths and sets than routes.
//
// Id 0 is the empty value (a nil path or set). Like handles, ids follow
// the order in which engine workers first interned the content, so
// nothing may order by an id or print one; equal ids are equal content
// and different ids different content. Workers intern concurrently: a
// table is split into shards by hash, each with its own lock over an
// open-addressed index of ids, and values live in a paged array whose
// readers never lock.
//
// A clone (RouteArena.Clone, taken when a world is forked) extends its
// original instead of copying it: the original is frozen, the clone
// finds its original's values through base without locking, and stores
// what it interns itself in pages and shards of its own. Cloning costs
// nothing per interned value, and a fork's values are invisible to its
// snapshot and to its sibling forks.

// internShards is how many locks split a table; a power of two.
const internShards = 64

// internTable hash-conses values of one kind.
type internTable[V interface{ ~[]E }, E any] struct {
	hash  func(V) uint64
	equal func(V, V) bool
	// canon copies v into dst, or into a new value if dst is nil, sharing
	// nothing with v and sized to fit.
	canon func(dst, v V) V

	vals   paged[internEntry[V, E]]
	shards [internShards]internShard
	base   *internTable[V, E] // the frozen table this one extends, or nil
	count  atomic.Int64       // values interned here and in base
	frozen atomic.Bool        // cloned: base of another table, read without locks
}

// internEntry is one stored value. A value of one element — a flat
// path's one segment, a single community — lives in the entry itself,
// so reading it costs no load beyond the entry's cache line.
type internEntry[V interface{ ~[]E }, E any] struct {
	v   V
	one E
}

// internShard indexes the ids of the values whose hash picks it, in an
// open-addressed table. A slot holds the hash's top 32 bits and the id,
// 0 when empty; probes start where the top bits point and go linearly,
// so a slot moves on growth without its value being hashed again, and a
// probe compares content only where those bits match. Shards sit on
// cache lines of their own.
type internShard struct {
	mu    sync.Mutex
	slots []uint64
	n     int // ids indexed
	_     [24]byte
}

func newInternTable[V interface{ ~[]E }, E any](hash func(V) uint64, equal func(V, V) bool, canon func(dst, v V) V) *internTable[V, E] {
	t := &internTable[V, E]{hash: hash, equal: equal, canon: canon}
	t.vals.next.Store(1) // id 0 is the empty value
	return t
}

// at returns the canonical value id names: read-only.
func (t *internTable[V, E]) at(id uint32) V {
	if id == 0 {
		return nil
	}
	return t.vals.at(id).v
}

// len returns how many values the table holds, its base's included.
func (t *internTable[V, E]) len() int64 { return t.count.Load() }

// intern returns v's id, storing a canonical copy of v first if the
// table does not hold it.
func (t *internTable[V, E]) intern(v V) uint32 {
	if len(v) == 0 {
		return 0
	}
	h := t.hash(v)
	for b := t.base; b != nil; b = b.base {
		if id := b.find(v, h); id != 0 {
			return id
		}
	}
	s := &t.shards[h&(internShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if id := t.find(v, h); id != 0 {
		return id
	}
	return t.insert(s, v, h)
}

// find returns the id of v among the values stored in t itself, 0 if
// there is none. The caller holds the shard's lock, or t is frozen.
func (t *internTable[V, E]) find(v V, h uint64) uint32 {
	s := &t.shards[h&(internShards-1)]
	if len(s.slots) == 0 {
		return 0
	}
	mask := len(s.slots) - 1
	for i := int(h>>32) & mask; s.slots[i] != 0; i = (i + 1) & mask {
		if e := s.slots[i]; e>>32 == h>>32 && t.equal(t.vals.at(uint32(e)).v, v) {
			return uint32(e)
		}
	}
	return 0
}

// insert stores a canonical copy of v, which t does not hold, and
// indexes it. The caller holds s, v's shard.
func (t *internTable[V, E]) insert(s *internShard, v V, h uint64) uint32 {
	if t.frozen.Load() {
		panic("router: value interned into a cloned intern table")
	}
	id := t.vals.reserve(1)
	if id >= mixedPath {
		panic("router: intern table exhausted (2^31 values)")
	}
	e := t.vals.at(id)
	var dst V
	if len(v) == 1 {
		dst = V(unsafe.Slice(&e.one, 1))
	}
	e.v = t.canon(dst, v)
	if 2*(s.n+1) > len(s.slots) { // keep the index at most half full
		old := s.slots
		s.slots = make([]uint64, max(64, 2*len(old)))
		for _, e := range old {
			if e != 0 {
				s.place(e)
			}
		}
	}
	s.place(h>>32<<32 | uint64(id))
	s.n++
	t.count.Add(1)
	return id
}

// place puts slot e in the first empty slot of its probe sequence.
func (s *internShard) place(e uint64) {
	mask := len(s.slots) - 1
	i := int(e>>32) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = e
}

// clone returns a table extending t, and freezes t.
func (t *internTable[V, E]) clone() *internTable[V, E] {
	t.frozen.Store(true)
	c := &internTable[V, E]{hash: t.hash, equal: t.equal, canon: t.canon, base: t}
	t.vals.shareInto(&c.vals)
	c.count.Store(t.count.Load())
	return c
}

// hashWord folds one word into a running hash; hashSum finishes it with
// a full avalanche, so the shard index (the low bits) depends on every
// word.
func hashWord(h, x uint64) uint64 { return (h ^ x) * 0x100000001b3 }

func hashSum(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

const hashSeed = 0xcbf29ce484222325

func newCommTable() *internTable[bgp.CommunitySet, bgp.Community] {
	return newInternTable(func(s bgp.CommunitySet) uint64 {
		h := uint64(hashSeed)
		for _, c := range s {
			h = hashWord(h, uint64(c))
		}
		return hashSum(h)
	}, slices.Equal[bgp.CommunitySet], func(dst, s bgp.CommunitySet) bgp.CommunitySet {
		if dst == nil {
			dst = make(bgp.CommunitySet, len(s))
		}
		copy(dst, s)
		return dst
	})
}

// A path id carries mixedPath when its path is not one flat sequence —
// several segments, an AS_SET, an empty segment. Route comparisons treat
// paths that flatten to the same ASN sequence as equal, segment
// boundaries ignored (bgp.ASPath.EqualSequence): a flat path is equal
// only to itself, so two flat ids compare by value, and only a mixed
// path's comparison reads content. Simulated worlds build flat paths
// only.
const mixedPath = 1 << 31

func newPathTable() *internTable[bgp.ASPath, bgp.PathSegment] {
	return newInternTable(func(p bgp.ASPath) uint64 {
		h := uint64(hashSeed)
		for _, seg := range p {
			h = hashWord(h, uint64(seg.Type)<<32|uint64(len(seg.ASNs)))
			for _, a := range seg.ASNs {
				h = hashWord(h, uint64(a))
			}
		}
		return hashSum(h)
	}, func(p, q bgp.ASPath) bool {
		if len(p) != len(q) {
			return false
		}
		for i := range p {
			if p[i].Type != q[i].Type || !slices.Equal(p[i].ASNs, q[i].ASNs) {
				return false
			}
		}
		return true
	}, func(out, p bgp.ASPath) bgp.ASPath {
		n := 0
		for _, seg := range p {
			n += len(seg.ASNs)
		}
		asns := make([]uint32, 0, n)
		if out == nil {
			out = make(bgp.ASPath, len(p))
		}
		for i, seg := range p {
			asns = append(asns, seg.ASNs...)
			out[i] = bgp.PathSegment{Type: seg.Type, ASNs: asns[len(asns)-len(seg.ASNs) : len(asns) : len(asns)]}
		}
		return out
	})
}

// pathID returns p's id in the arena's path table, interning it.
func (a *RouteArena) pathID(p bgp.ASPath) uint32 {
	id := a.paths.intern(p)
	if len(p) > 1 || len(p) == 1 && (p[0].Type != bgp.SegmentSequence || len(p[0].ASNs) == 0) {
		id |= mixedPath
	}
	return id
}

// path returns the canonical path id names.
func (a *RouteArena) path(id uint32) bgp.ASPath { return a.paths.at(id &^ mixedPath) }

// samePath reports whether two path ids name paths that flatten to the
// same ASN sequence.
func (a *RouteArena) samePath(x, y uint32) bool {
	if x == y {
		return true
	}
	return (x|y)&mixedPath != 0 && a.path(x).EqualSequence(a.path(y))
}

// prepend returns the id of path id prepended with asn n times — what
// bgp.ASPath.Prepend builds — assembling it in the cursor's scratch, so
// a path the table already holds costs no allocation.
func (c *RouteCursor) prepend(id, asn uint32, n int) uint32 {
	if n <= 0 {
		return id
	}
	p := c.a.path(id)
	var head []uint32 // the leading sequence the repeats join, if there is one
	rest := p
	if len(p) > 0 && p[0].Type == bgp.SegmentSequence {
		head, rest = p[0].ASNs, p[1:]
	}
	c.asns = c.asns[:0]
	for range n {
		c.asns = append(c.asns, asn)
	}
	c.asns = append(c.asns, head...)
	c.segs = append(append(c.segs[:0], bgp.PathSegment{Type: bgp.SegmentSequence, ASNs: c.asns}), rest...)
	return c.a.pathID(c.segs)
}

// kept returns the id of the part of community set id that mode lets an
// export from AS self carry (PropagationMode.Keeps per community),
// filtering in the cursor's scratch.
func (c *RouteCursor) kept(id uint32, mode policy.PropagationMode, self uint16) uint32 {
	set := c.a.comms.at(id)
	for i, x := range set {
		if !mode.Keeps(self, x) {
			c.comms = append(c.comms[:0], set[:i]...)
			for _, y := range set[i+1:] {
				if mode.Keeps(self, y) {
					c.comms = append(c.comms, y)
				}
			}
			return c.a.comms.intern(c.comms)
		}
	}
	return id
}
