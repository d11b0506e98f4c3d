package router

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// holds reports whether t or a table it extends stores v.
func holds[V interface{ ~[]E }, E any](t *internTable[V, E], v V) bool {
	h := t.hash(v)
	for b := t; b != nil; b = b.base {
		s := &b.shards[h&(internShards-1)]
		s.mu.Lock()
		id := b.find(v, h)
		s.mu.Unlock()
		if id != 0 {
			return true
		}
	}
	return false
}

// TestInternConcurrentEqualContentEqualIDs interns the same 300 paths
// and community sets from eight goroutines at once, each in its own
// order and from its own copy, and checks that equal content got one id
// and unequal content different ids, every id resolving to its content.
// Run it under -race: the shards' locks and the values' pages are all
// the synchronization the tables have.
func TestInternConcurrentEqualContentEqualIDs(t *testing.T) {
	a := NewRouteArena()
	const goroutines, values = 8, 300
	path := func(i int) bgp.ASPath { return bgp.Path(uint32(i%7+1), uint32(i), 65000) }
	comms := func(i int) bgp.CommunitySet {
		return bgp.NewCommunitySet(bgp.C(uint16(i), 1), bgp.C(3320, uint16(i%5)))
	}
	pathIDs := make([][]uint32, goroutines)
	commIDs := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pathIDs[g] = make([]uint32, values)
			commIDs[g] = make([]uint32, values)
			for k := range values {
				i := (k + g*37) % values // every goroutine visits every value, from its own start
				pathIDs[g][i] = a.pathID(path(i))
				commIDs[g][i] = a.comms.intern(comms(i))
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !slices.Equal(pathIDs[g], pathIDs[0]) || !slices.Equal(commIDs[g], commIDs[0]) {
			t.Fatalf("goroutine %d got other ids for the same content than goroutine 0", g)
		}
	}
	for _, ids := range [][]uint32{pathIDs[0], commIDs[0]} {
		if s := slices.Compact(slices.Sorted(slices.Values(ids))); len(s) != values || s[0] == 0 {
			t.Fatalf("%d distinct ids (the first %d) for %d distinct values", len(s), s[0], values)
		}
	}
	for i := range values {
		if got := a.path(pathIDs[0][i]); !slices.Equal(got.Sequence(), path(i).Sequence()) {
			t.Fatalf("path %d resolves to %v", i, got)
		}
		if got := a.comms.at(commIDs[0][i]); !slices.Equal(got, comms(i)) {
			t.Fatalf("community set %d resolves to %v", i, got)
		}
	}
	if p, c := a.Interned(); p != values || c != values {
		t.Fatalf("Interned() = %d paths, %d community sets, want %d each", p, c, values)
	}
}

// TestInternCollidingHashesKeepContentApart gives a table a hash that
// sends everything to one chain: only the content comparison tells the
// values apart, and each must still get an id of its own.
func TestInternCollidingHashesKeepContentApart(t *testing.T) {
	tbl := newInternTable(func(bgp.CommunitySet) uint64 { return 7 }, slices.Equal[bgp.CommunitySet], newCommTable().canon)
	sets := []bgp.CommunitySet{{bgp.C(1, 1)}, {bgp.C(1, 2)}, {bgp.C(1, 1), bgp.C(1, 2)}}
	var ids []uint32
	for _, s := range sets {
		ids = append(ids, tbl.intern(s))
	}
	for i, s := range sets {
		if got := tbl.intern(slices.Clone(s)); got != ids[i] {
			t.Fatalf("%v interned again got id %d, first %d", s, got, ids[i])
		}
		if got := tbl.at(ids[i]); !slices.Equal(got, s) {
			t.Fatalf("id %d resolves to %v, want %v", ids[i], got, s)
		}
	}
	if ids[0] == ids[1] || ids[1] == ids[2] || ids[0] == ids[2] {
		t.Fatalf("colliding values share ids: %v", ids)
	}
}

// TestInternCanonicalValuesShareNothing: the table stores its own,
// tightly sized copy, so neither writing the caller's value afterwards
// nor appending to a resolved one reaches it.
func TestInternCanonicalValuesShareNothing(t *testing.T) {
	a := NewRouteArena()
	in := bgp.ASPath{{Type: bgp.SegmentSequence, ASNs: append(make([]uint32, 0, 8), 1, 2)}, {Type: bgp.SegmentSet, ASNs: []uint32{3, 4}}}
	id := a.pathID(in)
	in[0].ASNs[0] = 9
	got := a.path(id)
	if got.String() != "1 2 {3,4}" {
		t.Fatalf("canonical path reads %q after the input changed", got)
	}
	for _, seg := range got {
		if cap(seg.ASNs) != len(seg.ASNs) {
			t.Fatalf("canonical segment %v has spare capacity %d", seg.ASNs, cap(seg.ASNs))
		}
	}
	_ = append(got[0].ASNs, 7)
	if got := a.path(id); got.String() != "1 2 {3,4}" {
		t.Fatalf("canonical path reads %q after an append to it", got)
	}
}

// TestInternEqualSequenceNotSegments: paths that flatten to one ASN
// sequence but differ in their segments are different content (each
// resolves to itself) and equal routes: every comparison keeps
// bgp.ASPath.EqualSequence's verdict, which ignores segment boundaries
// and set/sequence types.
func TestInternEqualSequenceNotSegments(t *testing.T) {
	a := NewRouteArena()
	flat := bgp.Path(1, 2, 3)
	forms := []bgp.ASPath{
		flat,
		{{Type: bgp.SegmentSequence, ASNs: []uint32{1}}, {Type: bgp.SegmentSequence, ASNs: []uint32{2, 3}}},
		{{Type: bgp.SegmentSequence, ASNs: []uint32{1, 2}}, {Type: bgp.SegmentSet, ASNs: []uint32{3}}},
		{{Type: bgp.SegmentSet, ASNs: []uint32{1, 2, 3}}},
		{{Type: bgp.SegmentSequence, ASNs: []uint32{1, 2, 3}}, {Type: bgp.SegmentSequence}},
	}
	ids := make([]uint32, len(forms))
	for i, p := range forms {
		ids[i] = a.pathID(p)
		if got := a.path(ids[i]); got.String() != p.String() || len(got) != len(p) {
			t.Fatalf("form %d (%v) resolves to %v", i, p, got)
		}
		if again := a.pathID(p.Clone()); again != ids[i] {
			t.Fatalf("form %d interned twice: ids %d and %d", i, ids[i], again)
		}
	}
	if s := slices.Compact(slices.Sorted(slices.Values(ids))); len(s) != len(forms) {
		t.Fatalf("%d ids for %d different forms", len(s), len(forms))
	}
	other := a.pathID(bgp.Path(1, 2, 4))
	for i, x := range ids {
		for j, y := range ids {
			if !a.samePath(x, y) {
				t.Fatalf("forms %d and %d flatten alike but compare different", i, j)
			}
		}
		if a.samePath(x, other) || a.samePath(other, x) {
			t.Fatalf("form %d compares equal to 1 2 4", i)
		}
	}

	// Through the router: re-advertising the same route with its path
	// split differently is no change, and a different sequence is one.
	r := New(Config{ASN: 65001}, NewRouteArena())
	r.AddNeighbor(100, topo.RelCustomer)
	p := netx.MustPrefix("203.0.113.0/24")
	rt := policy.NewLocalRoute(p)
	rt.ASPath = forms[0]
	if !r.RecordAdvertised(100, p, rt) {
		t.Fatal("first advertisement not recorded as a change")
	}
	for i, form := range forms[1:] {
		cp := *rt
		cp.ASPath = form
		if r.RecordAdvertised(100, p, &cp) {
			t.Fatalf("form %d (%v) re-advertised as a change", i+1, form)
		}
	}
	cp := *rt
	cp.ASPath = bgp.Path(1, 2, 4)
	if !r.RecordAdvertised(100, p, &cp) {
		t.Fatal("a different sequence was not a change")
	}
}

// TestInternEmptyValues: every empty path or community set is id 0 and
// resolves to nil, while a path of one empty segment is content of its
// own that flattens to the empty sequence.
func TestInternEmptyValues(t *testing.T) {
	a := NewRouteArena()
	for _, p := range []bgp.ASPath{nil, {}, bgp.Path()} {
		if id := a.pathID(p); id != 0 {
			t.Fatalf("empty path %#v got id %d", p, id)
		}
	}
	for _, s := range []bgp.CommunitySet{nil, {}, bgp.NewCommunitySet()} {
		if id := a.comms.intern(s); id != 0 {
			t.Fatalf("empty set %#v got id %d", s, id)
		}
	}
	if a.path(0) != nil || a.comms.at(0) != nil {
		t.Fatal("id 0 resolves to something")
	}
	hollow := a.pathID(bgp.ASPath{{Type: bgp.SegmentSequence}})
	if hollow == 0 || !a.samePath(hollow, 0) || len(a.path(hollow)) != 1 {
		t.Fatalf("one empty segment: id %d, resolves to %#v", hollow, a.path(hollow))
	}
	if p, c := a.Interned(); p != 1 || c != 0 {
		t.Fatalf("Interned() = %d, %d, want 1 path (the empty segment) and no set", p, c)
	}
	// A route with neither resolves to nil fields, as it was built.
	rt := policy.NewLocalRoute(netx.MustPrefix("192.0.2.0/24"))
	got := a.Ref(a.Add(rt)).Route()
	if got.ASPath != nil || got.Communities != nil || got.Prefix != rt.Prefix {
		t.Fatalf("empty route resolves to %v", &got)
	}
}

// TestForkInternsIntoItsOwnTables clones an arena twice, the way two
// forks clone their snapshot's: what one clone interns is invisible to
// the original and to its sibling, the original refuses new content,
// and a clone resolves every id the original handed out.
func TestForkInternsIntoItsOwnTables(t *testing.T) {
	snap := NewRouteArena()
	old := snap.pathID(bgp.Path(1, 2))
	oldSet := snap.comms.intern(bgp.CommunitySet{bgp.C(1, 1)})
	paths, sets := snap.Interned()
	forks := []*RouteArena{snap.Clone(), snap.Clone()}
	fresh := []bgp.ASPath{bgp.Path(7, 8, 9), bgp.Path(7, 8, 10)}
	freshSet := bgp.CommunitySet{bgp.C(7, 7)}
	for i, f := range forks {
		if f.pathID(bgp.Path(1, 2)) != old || f.comms.intern(bgp.CommunitySet{bgp.C(1, 1)}) != oldSet {
			t.Fatalf("fork %d gave the snapshot's content a new id", i)
		}
		if got := f.path(old); !slices.Equal(got.Sequence(), []uint32{1, 2}) {
			t.Fatalf("fork %d resolves the snapshot's path id to %v", i, got)
		}
		f.pathID(fresh[i])
	}
	forks[0].comms.intern(freshSet)
	for i, f := range forks {
		if !holds(f.paths, fresh[i]) || holds(f.paths, fresh[1-i]) {
			t.Fatalf("fork %d holds %v / its sibling's %v: %v / %v", i, fresh[i], fresh[1-i], holds(f.paths, fresh[i]), holds(f.paths, fresh[1-i]))
		}
		if got := f.path(f.pathID(fresh[i])); !slices.Equal(got.Sequence(), fresh[i].Sequence()) {
			t.Fatalf("fork %d resolves its own path to %v", i, got)
		}
	}
	if holds(forks[1].comms, freshSet) {
		t.Fatal("fork 1 holds the community set fork 0 interned")
	}
	for _, p := range fresh {
		if holds(snap.paths, p) {
			t.Fatalf("the snapshot holds %v, which a fork interned", p)
		}
	}
	if holds(snap.comms, freshSet) {
		t.Fatal("the snapshot holds a community set a fork interned")
	}
	if p, s := snap.Interned(); p != paths || s != sets {
		t.Fatalf("the snapshot's tables grew to %d paths and %d sets", p, s)
	}
	for name, add := range map[string]func(){
		"path":          func() { snap.pathID(bgp.Path(5)) },
		"community set": func() { snap.comms.intern(bgp.CommunitySet{bgp.C(5, 5)}) },
		"route":         func() { snap.Add(policy.NewLocalRoute(netx.MustPrefix("192.0.2.0/24"))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a new %s went into the cloned snapshot", name)
				}
			}()
			add()
		}()
	}
}

// TestCloneKeepsIDsValid clones a sealed router holding routes onto a
// clone of its arena, the way a fork does, and checks that every handle
// and prefix id it holds reads the same there and every view reads the
// same afterwards.
func TestCloneKeepsIDsValid(t *testing.T) {
	r := New(Config{ASN: 65001, IngressTags: map[topo.ASN][]bgp.Community{200: {bgp.C(65001, 9)}}}, NewRouteArena())
	r.AddNeighbor(100, topo.RelProvider)
	r.AddNeighbor(200, topo.RelCustomer)
	for i := range 40 {
		p := netip.PrefixFrom(netx.V4(10, 0, byte(i), 0), 24)
		rt := policy.NewLocalRoute(p)
		rt.ASPath = bgp.ASPath{{Type: bgp.SegmentSequence, ASNs: []uint32{100, uint32(i)}}, {Type: bgp.SegmentSet, ASNs: []uint32{7, 8}}}
		rt.Communities = bgp.NewCommunitySet(bgp.C(100, uint16(i%3)))
		r.ReceiveUpdate(100, rt)
		rt.ASPath = bgp.Path(200, uint32(i%4))
		r.ReceiveUpdate(200, rt)
		if i%2 == 0 {
			r.Originate(p, bgp.C(65001, 1))
		}
	}
	view := func(r *Router) string {
		var b []string
		r.EachAdjIn(func(p netip.Prefix, from topo.ASN, rt *policy.Route) { b = append(b, fmt.Sprint(from, rt)) })
		for _, rt := range r.RIB() {
			b = append(b, rt.String())
		}
		return fmt.Sprint(b)
	}
	want := view(r)
	r.Seal()
	clone := r.routes.Clone()
	cp := r.Clone(clone)
	if cp.Table() != clone.Table() {
		t.Fatal("the clone does not index its slots by its arena's table")
	}
	for id, st := range r.slots.all() {
		if st.in.n() == 0 {
			continue // past the table's end, or never written
		}
		if p := r.Table().At(id); clone.Table().At(id) != p {
			t.Fatalf("id %d names %s on the clone, %s before", id, clone.Table().At(id), p)
		}
		for _, e := range r.in.view(st.in) {
			if *clone.rec(e.h) != *r.routes.rec(e.h) {
				t.Fatalf("handle %d reads %+v on the clone, %+v before", e.h, *clone.rec(e.h), *r.routes.rec(e.h))
			}
		}
	}
	if got := view(cp); got != want {
		t.Fatalf("after Clone onto an arena clone:\n%s\nwant\n%s", got, want)
	}
}

// TestArenaRecordHoldsNoPointer: the garbage collector never scans an
// arena page only while the record type holds no pointer of any kind.
func TestArenaRecordHoldsNoPointer(t *testing.T) {
	var check func(reflect.Type, string)
	check = func(ty reflect.Type, at string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				check(ty.Field(i).Type, at+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			check(ty.Elem(), at+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s", at, ty.Kind())
		}
	}
	check(reflect.TypeFor[record](), "record")
	if size := unsafe.Sizeof(record{}); size > 28 {
		t.Errorf("a record is %d bytes, want at most 28", size)
	}
}
