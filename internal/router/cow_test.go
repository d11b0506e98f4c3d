package router

import (
	"fmt"
	"net/netip"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// privatePages counts the slot pages and slab pages cp holds that are not
// the pages of orig, the router it was cloned from.
func privatePages(orig, cp *Router) (slots, in, out int) {
	for id := 0; id < len(cp.Table().Prefixes()); id += 1 << slotPageBits {
		if s := cp.slots.at(uint32(id)); s != nil && s != orig.slots.at(uint32(id)) {
			slots++
		}
	}
	return slots, privateSlabPages(&orig.in, &cp.in), privateSlabPages(&orig.out, &cp.out)
}

// privateSlabPages compares each page's first element, which every
// allocated page has.
func privateSlabPages[T any](orig, cp *slab[T]) int {
	n := 0
	for pg := range cp.pages {
		first := packSpan(uint32(pg<<slabPageBits), 1, 1)
		if pg >= len(orig.pages) || &cp.view(first)[0] != &orig.view(first)[0] {
			n++
		}
	}
	return n
}

// TestCloneSharesUntouchedPages pins the copy-on-write page rule: a clone
// of a sealed router shares every slot and slab page with it, and writing
// one prefix through each mutator copies only the pages that prefix's
// slot and runs live in — one slot page, and per slab the page a run
// moves out of and the one it moves into — while the sealed original
// reads back exactly as before.
func TestCloneSharesUntouchedPages(t *testing.T) {
	r := New(Config{ASN: 65001}, NewRouteArena())
	nbs := []topo.ASN{100, 200, 300}
	r.AddNeighbor(100, topo.RelProvider)
	r.AddNeighbor(200, topo.RelCustomer)
	r.AddNeighbor(300, topo.RelPeer)
	route := func(p netip.Prefix, path ...uint32) *policy.Route {
		rt := policy.NewLocalRoute(p)
		rt.ASPath = bgp.Path(path...)
		return rt
	}
	record := func(r *Router, id uint32) {
		r.RecordAdvertisedAll(id, r.ExportAll(nil, id, nbs, nil, nil), func(topo.ASN, Handle) {})
	}
	var universe []netip.Prefix
	for i := range 3000 {
		p := netip.PrefixFrom(netx.V4(10, byte(i>>8), byte(i), 0), 24)
		universe = append(universe, p)
		id := r.Table().Intern(p)
		for _, from := range nbs[:1+i%2] {
			r.ReceiveSharedNoDecide(nil, from, id, r.routes.Add(route(p, uint32(from), 3320)))
		}
		r.Decide(id)
		record(r, id)
	}
	r.Seal()
	before := readBack(r, universe, nbs)
	cp := r.Clone(r.routes.Clone())
	if s, in, out := privatePages(r, cp); s+in+out != 0 {
		t.Fatalf("fresh clone owns %d slot, %d in and %d out pages; want all shared", s, in, out)
	}

	p := universe[1234] // learned from 100 alone, advertised to 200
	id, _ := cp.Table().Lookup(p)
	cp.ReceiveSharedNoDecide(nil, 100, id, cp.routes.Add(route(p, 100, 9, 3320))) // storeAdjIn: a replace in a shared page
	cp.ReceiveSharedNoDecide(nil, 300, id, cp.routes.Add(route(p, 300, 3320)))    // storeAdjIn: a new candidate
	cp.WithdrawNoDecide(100, id)
	cp.Decide(id)
	record(cp, id) // the record for 200 is replaced in place
	cp.Originate(p)
	cp.WithdrawLocal(p)

	if readBack(cp, universe, nbs) == before {
		t.Fatal("the clone's writes changed nothing it reads back")
	}
	if got := readBack(r, universe, nbs); got != before {
		t.Fatalf("writes to the clone reached the sealed original:\n%s", lineDiff(got, before))
	}
	s, in, out := privatePages(r, cp)
	if s > 1 || in > 2 || out > 2 {
		t.Fatalf("writing one prefix took %d slot, %d in and %d out pages private; want at most 1, 2 and 2", s, in, out)
	}
	if ns, nin, nout := len(r.Table().Prefixes())>>slotPageBits, len(r.in.pages), len(r.out.pages); ns < 4 || nin < 4 || nout < 4 {
		t.Fatalf("the original has only %d slot, %d in and %d out pages: the bounds above prove nothing", ns, nin, nout)
	}

	// Growing a new prefix's run allocates past the sealed original's
	// last page, which has spare capacity that every sibling clone
	// shares: no shared page is copied for it, and each sibling reads
	// back only its own candidates for the one id both tables give it.
	// The same holds for the route arena: each sibling is cloned onto a
	// clone of the original's, whose last page has room left too, and
	// stores its routes in pages of its own.
	r = New(Config{ASN: 65002}, NewRouteArena())
	r.AddNeighbor(100, topo.RelProvider)
	r.AddNeighbor(200, topo.RelCustomer)
	for i := range 1000 {
		p := netip.PrefixFrom(netx.V4(10, byte(i>>8), byte(i), 0), 24)
		r.ReceiveSharedNoDecide(nil, 100, r.Table().Intern(p), r.routes.Add(route(p, 100, 3320)))
	}
	r.Seal()
	if last := r.in.pages[len(r.in.pages)-1].elems; len(r.in.free) != 0 || len(last) == cap(last) {
		t.Fatalf("the original's Adj-RIB-In has free spans %v or a full last page: the check below proves nothing", r.in.free)
	}
	if r.routes.recs.next.Load()%pageLen == 0 {
		t.Fatal("the original's route arena ends on a page boundary: the check below proves nothing")
	}
	q := netip.MustParsePrefix("192.0.2.0/24")
	origins := []uint32{64500, 64501}
	var sibs []*Router
	for i, origin := range origins {
		cp := r.Clone(r.routes.Clone())
		id := cp.Table().Intern(q)
		// The siblings store their two routes in opposite orders, so
		// their equal-shaped candidate runs name different handles: a run
		// one sibling wrote over the other's reads back wrong.
		receive := [2]func(){
			func() { cp.ReceiveSharedNoDecide(nil, 100, id, cp.routes.Add(route(q, 100, origin))) },
			func() { cp.ReceiveUpdate(200, route(q, 200, origin)) }, // the router builds this one
		}
		receive[i]()
		receive[1-i]()
		for _, e := range cp.in.view(cp.slots.at(id).in) {
			if pg := int(e.h >> pageBits); pg < len(r.routes.recs.view()) && cp.routes.recs.view()[pg] == r.routes.recs.view()[pg] {
				t.Fatalf("sibling clone %d stored the route from %d in a page of the original's arena", len(sibs), e.from)
			}
		}
		if n := privateSlabPages(&r.in, &cp.in) - (len(cp.in.pages) - len(r.in.pages)); n != 0 {
			t.Fatalf("growing a new prefix's run copied %d shared Adj-RIB-In pages", n)
		}
		sibs = append(sibs, cp)
	}
	for i, cp := range sibs {
		got := ""
		cp.EachAdjIn(func(p netip.Prefix, from topo.ASN, rt *policy.Route) {
			if p == q {
				got += fmt.Sprintf("%d %v; ", from, rt.ASPath)
			}
		})
		if want := fmt.Sprintf("100 %v; 200 %v; ", bgp.Path(100, origins[i]), bgp.Path(200, origins[i])); got != want {
			t.Fatalf("sibling clone %d reads back %q for %s, want %q", i, got, q, want)
		}
	}
}
