package simnet_test

import (
	"slices"
	"testing"

	"bgpworms/internal/gen"
	"bgpworms/internal/topo"
)

// TestDeltaAllocationsPerDelivery pins the engine's allocation cost in a
// unit no machine changes: heap allocations per delivery while a built
// gen.Tiny world — delta state, slabs and scratch warm — reconverges
// twice (every origin withdraws and re-announces each of its prefixes,
// ~16k deliveries a pass, collectors recording). The commit before the
// routers' tables became prefix-indexed slots measured 2.43 for this
// loop (38,786 allocations for 15,989 deliveries); the first arm's
// bound is half of that. The second arm runs the same loop on one
// engine worker, so the pool's goroutines do not count and the figure is
// the same on any machine: 0.604 (9,665 allocations) before routes moved
// into the network's arena, 0.405 (6,469) after. What is left is the
// AS paths and community sets of changed export classes and tagged
// imports, which arena routes still point to.
func TestDeltaAllocationsPerDelivery(t *testing.T) {
	const parentAllocsPerDelivery = 2.43
	const arenaAllocsPerDelivery = 0.41 // one engine worker
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var origins []topo.ASN
	for asn := range w.Origins {
		origins = append(origins, asn)
	}
	slices.Sort(origins)
	reconverge := func() {
		for _, asn := range origins {
			for _, p := range w.Origins[asn] {
				if _, err := w.Net.Withdraw(asn, p); err != nil {
					t.Fatal(err)
				}
				if _, err := w.Net.Announce(asn, p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	reconverge() // untagged re-announcements from here on: every pass does the same work
	for _, arm := range []struct {
		workers int // 0: the world's own pool
		bound   float64
	}{
		{0, parentAllocsPerDelivery / 2},
		{1, arenaAllocsPerDelivery},
	} {
		if arm.workers > 0 {
			w.Net.SetWorkers(arm.workers)
		}
		before := w.Net.Steps()
		allocs := testing.AllocsPerRun(2, reconverge) // one unmeasured pass, then two measured
		deliveries := float64(w.Net.Steps()-before) / 3
		if deliveries < 10000 {
			t.Fatalf("a pass delivered %.0f updates; the loop no longer reconverges the world", deliveries)
		}
		got := allocs / deliveries
		t.Logf("workers %d: %.0f allocations / %.0f deliveries = %.3f per delivery (bound %.3f)", w.Net.Workers(), allocs, deliveries, got, arm.bound)
		if got > arm.bound {
			t.Errorf("workers %d: %.3f allocations per delivery, want at most %.3f", w.Net.Workers(), got, arm.bound)
		}
	}
}
