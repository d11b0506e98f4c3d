package watch

import (
	"slices"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
)

// tables is what the window entries of one shard resolve their ids
// through: the origins, and one intern table each for AS paths and
// community sets. A feed repeats a few thousand paths and sets across
// millions of events, so a shard stores each distinct value once and
// its entries hold 32-bit ids. The shard's lock guards its tables.
type tables struct {
	origins origins
	paths   interned[[]uint32, uint32]
	comms   interned[bgp.CommunitySet, bgp.Community]
}

// compact builds ev's entry, taking a reference on its path and
// community set and interning its origin. With keep set, a path or set
// the tables lack is stored as ev's own slice, which nothing may write
// again; without it, as a copy.
func (t *tables) compact(ev *feed.Event, keep bool) entry {
	return entry{
		seq: ev.Seq, sec: ev.Time.Unix(), nsec: int32(ev.Time.Nanosecond()),
		path: t.paths.acquire(ev.ASPath, keep), comms: t.comms.acquire(ev.Communities, keep),
		peerAS: ev.PeerAS, origin: t.origins.id(ev.Source, ev.Time.Location()), withdraw: ev.Withdraw,
	}
}

// release drops e's references, when the ring evicts or overwrites it.
func (t *tables) release(e *entry) {
	t.paths.release(e.path)
	t.comms.release(e.comms)
}

// frozen is the tables as they stand, as tables of their own that later
// ingest never changes: what an export's windows resolve through. The
// values are immutable and shared; the id lists are copied, because a
// released id is reused for another value.
func (t *tables) frozen() *tables {
	return &tables{
		origins: t.origins.frozen(),
		paths:   interned[[]uint32, uint32]{vals: slices.Clone(t.paths.vals)},
		comms:   interned[bgp.CommunitySet, bgp.Community]{vals: slices.Clone(t.comms.vals)},
	}
}

// interned hash-conses the values of one kind that window entries hold.
// Equal content gets the same id, id 0 is the empty value, and the
// table holds exactly the values some entry references: each entry
// holding an id is one reference, and the last release frees the id
// for the next new value. Ids are never ordered or printed.
//
// The index is router/intern.go's open-addressed word hash with one
// owner and deletion: a slot holds the top 32 bits of the value's hash
// and its id, 0 when empty, and probes start where those bits point
// and go linearly, so a release can shift the slots behind a freed one
// back without hashing a value again.
type interned[V ~[]E, E ~uint32] struct {
	vals  []V      // id → value, nil for a free id; id 0 is never stored
	ids   []idMeta // id → its references and hash bits
	free  []uint32 // released ids
	slots []uint64
	n     int // ids indexed
}

// idMeta is what the table keeps for an id beside its value.
type idMeta struct {
	refs uint32 // entries holding the id
	tag  uint32 // the top 32 bits of the value's hash
}

// acquire returns v's id with one more reference on it. A value the
// table does not hold is stored first: v itself with keep set, else a
// copy of v.
func (t *interned[V, E]) acquire(v V, keep bool) uint32 {
	if len(v) == 0 {
		return 0
	}
	h := uint64(0xcbf29ce484222325)
	for _, x := range v {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	tag := uint32(h >> 32)
	if mask := len(t.slots) - 1; mask > 0 {
		for i := int(tag) & mask; t.slots[i] != 0; i = (i + 1) & mask {
			if s := t.slots[i]; uint32(s>>32) == tag && slices.Equal(t.vals[uint32(s)], v) {
				t.ids[uint32(s)].refs++
				return uint32(s)
			}
		}
	}
	var id uint32
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
	} else {
		if len(t.vals) == 0 { // id 0 is the empty value
			t.vals, t.ids = make([]V, 1, 64), make([]idMeta, 1, 64)
		}
		id = uint32(len(t.vals))
		t.vals, t.ids = append(t.vals, nil), append(t.ids, idMeta{})
	}
	if keep {
		t.vals[id] = v[:len(v):len(v)]
	} else {
		t.vals[id] = slices.Clone(v)
	}
	t.ids[id] = idMeta{refs: 1, tag: tag}
	if 2*(t.n+1) > len(t.slots) { // keep the index at most half full
		old := t.slots
		t.slots = make([]uint64, max(64, 2*len(old)))
		for _, s := range old {
			if s != 0 {
				t.place(s)
			}
		}
	}
	t.place(uint64(tag)<<32 | uint64(id))
	t.n++
	return id
}

// at returns the value id names: read only.
func (t *interned[V, E]) at(id uint32) V {
	if id == 0 {
		return nil
	}
	return t.vals[id]
}

// place puts slot s in the first empty slot of its probe sequence.
func (t *interned[V, E]) place(s uint64) {
	mask := len(t.slots) - 1
	i := int(s>>32) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// release drops one reference on id. The last one frees the id: its
// value leaves the table and its slot the index.
func (t *interned[V, E]) release(id uint32) {
	if id == 0 {
		return
	}
	m := &t.ids[id]
	if m.refs--; m.refs > 0 {
		return
	}
	mask := len(t.slots) - 1
	want := uint64(m.tag)<<32 | uint64(id)
	i := int(m.tag) & mask
	for t.slots[i] != want { // id's slot, on its probe sequence
		i = (i + 1) & mask
	}
	// Close the hole at i: a later slot of the same run moves into it
	// unless its probe starts after the hole.
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if home := int(t.slots[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = 0
	t.n--
	t.vals[id] = nil
	t.free = append(t.free, id)
}
