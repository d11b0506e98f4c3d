package router

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// TestSlotLayout pins the slot table's sizes: an 8-byte span, a 16-byte
// candidate entry (its hop length in what would be padding), a 32-byte
// slot and a slot page of exactly 4 KiB, one of the allocator's size
// classes, so no page carries rounding waste.
func TestSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(inEntry{}); size != 16 {
		t.Errorf("a candidate entry is %d bytes, want 16", size)
	}
	if size := unsafe.Sizeof(span{}); size != 8 {
		t.Errorf("a span is %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(slot{}); size != 32 {
		t.Errorf("a slot is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof(slotPage{}); size != 4096 {
		t.Errorf("a slot page is %d bytes, want 4096", size)
	}
}

// TestSpanPacking: a span's offset, length and capacity read back as
// packed for every capacity class, an empty run and a full one, and a
// capacity-1 span is not an empty one: released, it lands on free list
// class 0, and the next one-entry allocation reuses it.
func TestSpanPacking(t *testing.T) {
	caps := []uint32{0}
	for c := uint32(1); c <= 1<<20; c <<= 1 {
		caps = append(caps, c)
	}
	for _, c := range caps {
		for _, n := range []uint32{0, c} {
			for _, off := range []uint32{0, 1, slabPage - 1, 5<<slabPageBits | 17, 1<<32 - 1} {
				sp := packSpan(off, n, c)
				if sp.off != off || sp.n() != n || sp.cap() != c {
					t.Fatalf("packSpan(%d, %d, %d) reads off %d, n %d, cap %d", off, n, c, sp.off, sp.n(), sp.cap())
				}
			}
		}
	}

	var s slab[nbRoute]
	var sp span
	s.insert(&sp, 0, nbRoute{from: 1, h: 1})
	if sp.n() != 1 || sp.cap() != 1 {
		t.Fatalf("one insert into an empty span: n %d, cap %d, want 1, 1", sp.n(), sp.cap())
	}
	off := sp.off
	s.remove(&sp, 0)
	if sp != (span{}) {
		t.Fatalf("emptied span reads %+v, want the zero span", sp)
	}
	if len(s.free) == 0 || !slices.Equal(s.free[0], []uint32{off}) {
		t.Fatalf("free lists %v after releasing a capacity-1 span at %d, want class 0 to hold it", s.free, off)
	}
	if got := s.alloc(1); got != off {
		t.Fatalf("alloc(1) = %d, want the released span at %d", got, off)
	}
}

// TestSlabInsertRefusesRunPastSpanLength: a run at the longest length a
// span packs cannot take one more entry; insert panics rather than wrap
// the length to zero. The span is built at the limit directly, not by
// inserting 2^27 entries.
func TestSlabInsertRefusesRunPastSpanLength(t *testing.T) {
	var s slab[nbRoute]
	sp := packSpan(0, spanMaxLen, spanMaxLen+1)
	if sp.n() != spanMaxLen {
		t.Fatalf("span at the limit reads n %d, want %d", sp.n(), spanMaxLen)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); msg != "router: slab run outgrows its span's length field" {
			t.Fatalf("insert past the span length recovered %q", msg)
		}
	}()
	s.insert(&sp, 0, nbRoute{from: 1, h: 1})
}
