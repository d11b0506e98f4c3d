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
// loop (38,786 allocations for 15,989 deliveries). On one engine worker
// the figure was 0.604 (9,665 allocations) before routes moved into the
// network's arena, 0.405 (6,469) before AS paths and community sets were
// interned, and is 0.108 (1,723) since: an export or a tagged import
// whose path and communities the network already holds allocates
// nothing. What is left is new paths and sets, growth of the tables,
// slabs and scratch, and the collectors' records. On two workers the
// figure adds the pool's goroutines, 0.183 (2,930) in five runs out of
// five (2,929 in one). Each bound is its measured figure and a small
// margin.
func TestDeltaAllocationsPerDelivery(t *testing.T) {
	const (
		oneWorker  = 0.11
		twoWorkers = 0.185
	)
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
		workers int
		bound   float64
	}{
		{2, twoWorkers},
		{1, oneWorker},
	} {
		w.Net.SetWorkers(arm.workers)
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
