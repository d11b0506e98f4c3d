package router

import (
	"iter"
	"maps"
	"math/bits"
	"net/netip"
	"slices"
	"sync"
)

// PrefixTable assigns every prefix a dense id in first-seen order; routers
// index their per-prefix slots by it. A simnet.Network owns one table for
// all of its routers, so the engine hands ids — never prefixes — to the
// batched entry points; a standalone router (New) owns a private one.
//
// The table is append-only: an id, once assigned, names the same prefix
// for the table's lifetime and in every Clone taken afterwards. Ids are
// an in-memory layout detail and must never order or appear in anything
// observable (taps, archives, RIB dumps, reports); canonical order is
// netx.ComparePrefix over At's values.
//
// Lookup, At and Prefixes may run concurrently with Intern. The engine
// interns only in its serial entry points, so a converging run reads a
// table nobody writes.
type PrefixTable struct {
	mu  sync.RWMutex
	ids map[netip.Prefix]uint32
	pfx []netip.Prefix

	// base and baseLen record the table this one was cloned from and its
	// length then: while base has not grown since, a router can move from
	// base to this table without renumbering (Router.Rebind).
	base    *PrefixTable
	baseLen int
}

// NewPrefixTable returns an empty table.
func NewPrefixTable() *PrefixTable { return &PrefixTable{} }

// Intern returns p's id, assigning the next one if p is new. p must be
// masked.
func (t *PrefixTable) Intern(p netip.Prefix) uint32 {
	if id, ok := t.Lookup(p); ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[p]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[netip.Prefix]uint32)
	}
	id := uint32(len(t.pfx))
	t.ids[p] = id
	t.pfx = append(t.pfx, p)
	return id
}

// Lookup returns p's id without assigning one. p must be masked.
func (t *PrefixTable) Lookup(p netip.Prefix) (uint32, bool) {
	t.mu.RLock()
	id, ok := t.ids[p]
	t.mu.RUnlock()
	return id, ok
}

// At returns the prefix id names.
func (t *PrefixTable) At(id uint32) netip.Prefix {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pfx[id]
}

// Len returns how many prefixes have an id.
func (t *PrefixTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pfx)
}

// Prefixes returns the prefixes indexed by id. The slice is a stable
// read-only view: later Interns never write the elements it covers.
func (t *PrefixTable) Prefixes() []netip.Prefix {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pfx[:len(t.pfx):len(t.pfx)]
}

// Clone returns an independent table holding the same assignments; ids
// interned into either afterwards are invisible to the other. World
// forks clone the snapshot's table so a fork's new prefixes never reach
// the snapshot or a sibling fork.
func (t *PrefixTable) Clone() *PrefixTable {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return &PrefixTable{ids: maps.Clone(t.ids), pfx: slices.Clone(t.pfx), base: t, baseLen: len(t.pfx)}
}

// slotPageBits sizes a page of the slot table: 128 slots, 6 KiB.
const slotPageBits = 7

// slotTable holds a router's slots, indexed by prefix id, in fixed-size
// pages allocated on first write: growing never copies a slot, and a
// prefix that reaches a router costs it one page at most — not a slice
// as long as the id is high.
type slotTable []*[1 << slotPageBits]slot

// at returns the slot for id, or nil if its page was never written.
func (t slotTable) at(id uint32) *slot {
	if pg := int(id >> slotPageBits); pg < len(t) && t[pg] != nil {
		return &t[pg][id&(1<<slotPageBits-1)]
	}
	return nil
}

// grow returns the slot for id, allocating its page if need be.
func (t *slotTable) grow(id uint32) *slot {
	pg := int(id >> slotPageBits)
	if pg >= len(*t) {
		*t = append(*t, make(slotTable, pg+1-len(*t))...)
	}
	if (*t)[pg] == nil {
		(*t)[pg] = new([1 << slotPageBits]slot)
	}
	return t.at(id)
}

// all iterates the slots of every allocated page in id order, unused
// (zero) slots included.
func (t slotTable) all() iter.Seq2[uint32, *slot] {
	return func(yield func(uint32, *slot) bool) {
		for pg, page := range t {
			if page == nil {
				continue
			}
			for i := range page {
				if !yield(uint32(pg<<slotPageBits|i), &page[i]) {
					return
				}
			}
		}
	}
}

func (t slotTable) clone() slotTable {
	cp := slices.Clone(t)
	for pg, page := range cp {
		if page != nil {
			dup := *page
			cp[pg] = &dup
		}
	}
	return cp
}

// span locates one slot's run of entries inside a slab: page off>>slabPageBits,
// starting at element off&(slabPage-1).
type span struct{ off, n, cap uint32 }

// slabPageBits sizes a slab page: 1024 entries, 24 KiB of candidates or
// 16 KiB of advertisement records.
const (
	slabPageBits = 10
	slabPage     = 1 << slabPageBits
)

// slab stores the variable-length per-prefix runs of one table (Adj-RIB-In
// candidates or Adj-RIB-Out records) for a whole router in a few pages,
// instead of one heap slice per prefix. Runs have power-of-two
// capacities and never straddle a page (a run longer than a page gets a
// page to itself); a run that outgrows its span moves to a span of twice
// the size and the old span goes on its size class's free list, so
// steady-state churn reuses holes instead of allocating. Pages are never
// reallocated, so growth copies nothing but the run that moved. Elements
// outside live runs are always zero, so released route pointers do not
// outlive their entries.
type slab[T any] struct {
	pages [][]T      // len = elements handed out so far, cap = page size
	free  [][]uint32 // free[c] holds offsets of released spans of capacity 1<<c
}

// view returns sp's entries. The slice aliases the slab; an insert into
// the same span may move the run and leave it stale.
func (s *slab[T]) view(sp span) []T {
	if sp.n == 0 {
		return nil
	}
	o := sp.off & (slabPage - 1)
	return s.pages[sp.off>>slabPageBits][o : o+sp.n]
}

// insert places v at index i of sp's run, moving the run if it is full.
func (s *slab[T]) insert(sp *span, i int, v T) {
	if sp.n == sp.cap {
		s.grow(sp)
	}
	sp.n++
	run := s.view(*sp)
	copy(run[i+1:], run[i:])
	run[i] = v
}

// remove deletes index i of sp's run, releasing the span when it empties.
func (s *slab[T]) remove(sp *span, i int) {
	run := s.view(*sp)
	copy(run[i:], run[i+1:])
	var zero T
	run[len(run)-1] = zero
	sp.n--
	if sp.n == 0 {
		s.release(*sp)
		*sp = span{}
	}
}

// grow moves sp's run to a span of twice the capacity.
func (s *slab[T]) grow(sp *span) {
	newCap := max(1, 2*sp.cap)
	moved := span{off: s.alloc(newCap), n: sp.n, cap: newCap}
	copy(s.view(moved), s.view(*sp))
	s.release(*sp)
	*sp = moved
}

// alloc returns the offset of a zeroed span of capacity c (a power of
// two): a released one if the size class has any, else fresh elements
// from the last page, else a new page. The first pages of a slab are
// small, so a router holding three routes does not pay for a thousand.
func (s *slab[T]) alloc(c uint32) uint32 {
	if class := bits.TrailingZeros32(c); class < len(s.free) && len(s.free[class]) > 0 {
		last := len(s.free[class]) - 1
		off := s.free[class][last]
		s.free[class] = s.free[class][:last]
		return off
	}
	pg := len(s.pages) - 1
	if pg < 0 || len(s.pages[pg])+int(c) > cap(s.pages[pg]) {
		if pg >= 0 {
			// Hand the tail of the page we are leaving to the free lists,
			// largest power of two first.
			for rest := s.pages[pg]; len(rest) < cap(rest); {
				piece := uint32(1) << (bits.Len(uint(cap(rest)-len(rest))) - 1)
				s.release(span{off: uint32(pg<<slabPageBits | len(rest)), cap: piece})
				rest = rest[:len(rest)+int(piece)]
				s.pages[pg] = rest
			}
		}
		pg++
		size := slabPage
		if pg < 4 {
			size = 64 << pg
		}
		s.pages = append(s.pages, make([]T, 0, max(int(c), size)))
	}
	off := uint32(pg<<slabPageBits | len(s.pages[pg]))
	s.pages[pg] = s.pages[pg][:len(s.pages[pg])+int(c)]
	return off
}

// release zeroes sp's run and returns its span to the free list.
func (s *slab[T]) release(sp span) {
	if sp.cap == 0 {
		return
	}
	clear(s.view(sp))
	class := bits.TrailingZeros32(sp.cap)
	for len(s.free) <= class {
		s.free = append(s.free, nil)
	}
	s.free[class] = append(s.free[class], sp.off)
}

func (s *slab[T]) clone() slab[T] {
	cp := slab[T]{pages: slices.Clone(s.pages), free: slices.Clone(s.free)}
	for i, pg := range cp.pages {
		cp.pages[i] = append(make([]T, 0, cap(pg)), pg...)
	}
	for c := range cp.free {
		cp.free[c] = slices.Clone(cp.free[c])
	}
	return cp
}
