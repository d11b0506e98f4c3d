package router

import (
	"iter"
	"maps"
	"math/bits"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
)

// PrefixTable assigns every prefix a dense id in first-seen order; routers
// index their per-prefix slots by it and arena records name their prefix
// by it. Each RouteArena owns one, and every router on the arena indexes
// its slots by it, so a simnet.Network's engine hands ids — never
// prefixes — to the batched entry points.
//
// The table is append-only: an id, once assigned, names the same prefix
// for the table's lifetime and in every Clone taken afterwards. Ids are
// an in-memory layout detail and must never order or appear in anything
// observable (taps, archives, RIB dumps, reports); canonical order is
// netx.ComparePrefix over At's values.
//
// Lookup, At and Prefixes may run concurrently with Intern, and At and
// Prefixes never lock: the id-indexed prefixes are published through an
// atomic pointer the way arena pages are. The engine interns only in its
// serial entry points, so a converging run reads a table nobody writes.
type PrefixTable struct {
	mu  sync.RWMutex
	ids map[netip.Prefix]uint32
	pfx atomic.Pointer[[]netip.Prefix]
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
	// Appending may reuse the published slice's spare capacity: readers
	// of it never index past its length.
	pfx := append(t.view(), p)
	id := uint32(len(pfx) - 1)
	t.ids[p] = id
	t.pfx.Store(&pfx)
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
func (t *PrefixTable) At(id uint32) netip.Prefix { return (*t.pfx.Load())[id] }

// Prefixes returns the prefixes indexed by id. The slice is a stable
// read-only view: later Interns never write the elements it covers.
func (t *PrefixTable) Prefixes() []netip.Prefix { return slices.Clip(t.view()) }

func (t *PrefixTable) view() []netip.Prefix {
	if v := t.pfx.Load(); v != nil {
		return *v
	}
	return nil
}

// Clone returns an independent table holding the same assignments; ids
// interned into either afterwards are invisible to the other. World
// forks clone the snapshot's table so a fork's new prefixes never reach
// the snapshot or a sibling fork.
func (t *PrefixTable) Clone() *PrefixTable {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pfx := t.Prefixes()
	c := &PrefixTable{ids: maps.Clone(t.ids)}
	c.pfx.Store(&pfx)
	return c
}

// slotPageBits sizes a page of the slot table: 128 slots, 5 KiB.
const slotPageBits = 7

type slotPage = [1 << slotPageBits]slot

// slotTable holds a router's slots, indexed by prefix id, in fixed-size
// pages allocated on first write: growing never copies a slot, and a
// prefix that reaches a router costs it one page at most — not a slice
// as long as the id is high. A slot holds no pointer (routes are arena
// handles), so the garbage collector never scans a slot page.
//
// Pages are copy-on-write (cow.go): a clone shares every page with its
// sealed original and marks it shared. Read paths use at; every write
// goes through mut or grow, which copy a shared page once before handing
// out a pointer into it.
type slotTable []slotPageRef

// slotPageRef is one page of a slot table. The shared bit sits beside
// the pointer every access loads anyway.
type slotPageRef struct {
	page   *slotPage
	shared bool // the sealed original's page, not yet copied
}

// at returns the slot for id, or nil if its page was never written. The
// slot may live in a shared page: it must not be written through.
func (t slotTable) at(id uint32) *slot {
	if pg := int(id >> slotPageBits); pg < len(t) && t[pg].page != nil {
		return &t[pg].page[id&(1<<slotPageBits-1)]
	}
	return nil
}

// mut returns the slot for id for writing, or nil if its page was never
// written; a shared page is copied first.
func (t slotTable) mut(id uint32) *slot {
	pg := int(id >> slotPageBits)
	if pg >= len(t) || t[pg].page == nil {
		return nil
	}
	if t[pg].shared {
		dup := *t[pg].page
		t[pg] = slotPageRef{page: &dup}
	}
	return &t[pg].page[id&(1<<slotPageBits-1)]
}

// grow returns the slot for id for writing, allocating its page if need
// be.
func (t *slotTable) grow(id uint32) *slot {
	pg := int(id >> slotPageBits)
	if pg >= len(*t) {
		*t = append(*t, make(slotTable, pg+1-len(*t))...)
	}
	if (*t)[pg].page == nil {
		(*t)[pg].page = new(slotPage)
	}
	return t.mut(id)
}

// all iterates the slots of every allocated page in id order, unused
// (zero) slots included. Like at, it is a read path.
func (t slotTable) all() iter.Seq2[uint32, *slot] {
	return func(yield func(uint32, *slot) bool) {
		for pg, ref := range t {
			if ref.page == nil {
				continue
			}
			for i := range ref.page {
				if !yield(uint32(pg<<slotPageBits|i), &ref.page[i]) {
					return
				}
			}
		}
	}
}

// share returns a table that shares every page with t and owns none.
func (t slotTable) share() slotTable {
	cp := make(slotTable, len(t))
	for pg, ref := range t {
		cp[pg] = slotPageRef{page: ref.page, shared: ref.page != nil}
	}
	return cp
}

// span locates one slot's run of entries inside a slab: page off>>slabPageBits,
// starting at element off&(slabPage-1).
type span struct{ off, n, cap uint32 }

// slabPageBits sizes a slab page: 1024 entries, 16 KiB of candidates or
// 8 KiB of advertisement records.
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
// outside live runs are always zero. Both element types name routes by
// arena handle and hold no pointer, so slab pages are never scanned by
// the garbage collector.
//
// Pages are copy-on-write like the slot table's: view is the read path,
// and insert, remove, set, grow and release write only through run,
// which copies a shared page once. A shared page's spare capacity is
// shared too, with every sibling clone, so alloc never extends a shared
// page: it opens a fresh one, and a clone's first new pages are sized
// like a new slab's.
type slab[T any] struct {
	pages []slabPageRef[T]
	free  [][]uint32 // free[c] holds offsets of released spans of capacity 1<<c
	base  int        // pages shared with the original at share time
}

// slabPageRef is one page of a slab and whether it is shared.
type slabPageRef[T any] struct {
	elems  []T  // len = elements handed out so far, cap = page size
	shared bool // the sealed original's page, not yet copied
}

// view returns sp's entries for reading. The slice aliases the slab and
// may alias a shared page; an insert into the same span may move the
// run and leave it stale.
func (s *slab[T]) view(sp span) []T {
	if sp.n == 0 {
		return nil
	}
	o := sp.off & (slabPage - 1)
	return s.pages[sp.off>>slabPageBits].elems[o : o+sp.n]
}

// run is view for writing: sp's page is copied first if it is shared.
func (s *slab[T]) run(sp span) []T {
	if sp.n == 0 {
		return nil
	}
	s.own(int(sp.off >> slabPageBits))
	return s.view(sp)
}

// own makes page pg private to this slab, copying it if it is shared.
func (s *slab[T]) own(pg int) {
	if p := &s.pages[pg]; p.shared {
		*p = slabPageRef[T]{elems: append(make([]T, 0, cap(p.elems)), p.elems...)}
	}
}

// set overwrites index i of sp's run.
func (s *slab[T]) set(sp span, i int, v T) { s.run(sp)[i] = v }

// insert places v at index i of sp's run, moving the run if it is full.
func (s *slab[T]) insert(sp *span, i int, v T) {
	if sp.n == sp.cap {
		s.grow(sp)
	}
	sp.n++
	run := s.run(*sp)
	copy(run[i+1:], run[i:])
	run[i] = v
}

// remove deletes index i of sp's run, releasing the span when it empties.
func (s *slab[T]) remove(sp *span, i int) {
	run := s.run(*sp)
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
	copy(s.run(moved), s.view(*sp))
	s.release(*sp)
	*sp = moved
}

// alloc returns the offset of a zeroed span of capacity c (a power of
// two): a released one if the size class has any, else fresh elements
// from the last page unless it is shared, else a new page. The first
// pages of a slab, or of a clone's own, are small, so a router holding
// three routes does not pay for a thousand, nor a fork writing three.
func (s *slab[T]) alloc(c uint32) uint32 {
	if class := bits.TrailingZeros32(c); class < len(s.free) && len(s.free[class]) > 0 {
		last := len(s.free[class]) - 1
		off := s.free[class][last]
		s.free[class] = s.free[class][:last]
		return off
	}
	pg := len(s.pages) - 1
	if pg < 0 || s.pages[pg].shared || len(s.pages[pg].elems)+int(c) > cap(s.pages[pg].elems) {
		if pg >= 0 && !s.pages[pg].shared {
			// Hand the tail of the page we are leaving to the free lists,
			// largest power of two first.
			for rest := s.pages[pg].elems; len(rest) < cap(rest); {
				piece := uint32(1) << (bits.Len(uint(cap(rest)-len(rest))) - 1)
				s.release(span{off: uint32(pg<<slabPageBits | len(rest)), cap: piece})
				rest = rest[:len(rest)+int(piece)]
				s.pages[pg].elems = rest
			}
		}
		pg++
		size := slabPage
		if n := pg - s.base; n < 4 {
			size = 64 << n
		}
		s.pages = append(s.pages, slabPageRef[T]{elems: make([]T, 0, max(int(c), size))})
	}
	p := &s.pages[pg]
	off := uint32(pg<<slabPageBits | len(p.elems))
	p.elems = p.elems[:len(p.elems)+int(c)]
	return off
}

// release zeroes sp's run and returns its span to the free list.
func (s *slab[T]) release(sp span) {
	if sp.cap == 0 {
		return
	}
	clear(s.run(sp))
	class := bits.TrailingZeros32(sp.cap)
	for len(s.free) <= class {
		s.free = append(s.free, nil)
	}
	s.free[class] = append(s.free[class], sp.off)
}

// share returns a slab that shares every page with s and owns none. The
// free lists are copied: they are popped and pushed in place.
func (s *slab[T]) share() slab[T] {
	cp := slab[T]{pages: make([]slabPageRef[T], len(s.pages)), free: slices.Clone(s.free), base: len(s.pages)}
	for pg, p := range s.pages {
		cp.pages[pg] = slabPageRef[T]{elems: p.elems, shared: true}
	}
	for c := range cp.free {
		cp.free[c] = slices.Clone(cp.free[c])
	}
	return cp
}
