package router

import (
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/topo"
)

// The allocation guards pin what the slot layout is for, in a unit that
// does not depend on the machine: the steady-state hot path of the delta
// engine — replace a candidate, decide, re-export — allocates nothing.
// Route objects are built outside the measured loops; only table
// structure could allocate inside them.

func allocRouter() (*Router, uint32) {
	r := New(Config{ASN: 65001}, NewRouteArena())
	r.AddNeighbor(100, topo.RelProvider)
	r.AddNeighbor(200, topo.RelCustomer)
	r.AddNeighbor(300, topo.RelCustomer)
	return r, r.Table().Intern(netx.MustPrefix("203.0.113.0/24"))
}

func learned(first uint32, more ...uint32) *policy.Route {
	rt := policy.NewLocalRoute(netx.MustPrefix("203.0.113.0/24"))
	rt.ASPath = bgp.Path(append([]uint32{first}, more...)...)
	rt.Communities = bgp.NewCommunitySet(bgp.C(uint16(first), 1))
	return rt
}

func TestReceiveAndDecideAllocateNothing(t *testing.T) {
	r, id := allocRouter()
	r.ReceiveSharedNoDecide(nil, 200, id, r.routes.Add(learned(200, 7)))
	r.ReceiveSharedNoDecide(nil, 100, id, r.routes.Add(learned(100, 7)))
	r.Decide(id)

	// (a) The provider's candidate is replaced; the customer's stays best.
	loser := [2]Handle{r.routes.Add(learned(100, 8, 7)), r.routes.Add(learned(100, 9, 7))}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		if res, _ := r.ReceiveSharedNoDecide(nil, 100, id, loser[i%2]); res != ImportAccepted || r.Decide(id) {
			t.Fatal("replacing a losing candidate changed the best route")
		}
	}); n != 0 {
		t.Errorf("replace candidate + Decide (best unchanged): %v allocs, want 0", n)
	}

	// (b) The best candidate itself is replaced by a different route: the
	// slot takes the new entry, no policy.Route is built.
	winner := [2]Handle{r.routes.Add(learned(200, 8, 7)), r.routes.Add(learned(200, 9, 7))}
	if n := testing.AllocsPerRun(200, func() {
		i++
		if res, _ := r.ReceiveSharedNoDecide(nil, 200, id, winner[i%2]); res != ImportAccepted || !r.Decide(id) {
			t.Fatal("replacing the best candidate did not change the best route")
		}
	}); n != 0 {
		t.Errorf("replace candidate + Decide (best changed): %v allocs, want 0", n)
	}
	if best, _ := r.BestRoute(netx.MustPrefix("203.0.113.0/24")); best.NextHopAS != 200 || best.LocalPref != LocalPrefCustomer {
		t.Errorf("best route after the loops: %v", best)
	}
}

func TestUnchangedExportAllocatesNothing(t *testing.T) {
	for _, mode := range []policy.PropagationMode{policy.PropForwardAll, policy.PropActStripOwn} {
		r, id := allocRouter()
		r.cfg.Propagation = mode
		rt := learned(200, 7)
		rt.Communities = rt.Communities.Add(bgp.C(65001, 5)) // stripped under PropActStripOwn
		r.ReceiveSharedNoDecide(nil, 200, id, r.routes.Add(rt))
		r.Decide(id)

		nbs := r.Neighbors()
		hints := r.Hints(nbs)
		emitted := 0
		emit := func(topo.ASN, Handle) { emitted++ }
		buf := r.ExportAll(nil, id, nbs, hints, nil)
		r.RecordAdvertisedAll(id, buf, emit)
		if emitted != 2 { // the provider and the other customer; never back to 200
			t.Fatalf("%v: first export emitted %d advertisements, want 2", mode, emitted)
		}

		// (c) Nothing changed since: the class re-emits the recorded
		// handle, so neither the export nor the merge allocates.
		emitted = 0
		if n := testing.AllocsPerRun(200, func() {
			buf = r.ExportAll(nil, id, nbs, hints, buf[:0])
			r.RecordAdvertisedAll(id, buf, emit)
		}); n != 0 || emitted != 0 {
			t.Errorf("%v: unchanged ExportAll + RecordAdvertisedAll: %v allocs, %d emits, want 0 and 0", mode, n, emitted)
		}
	}
}
