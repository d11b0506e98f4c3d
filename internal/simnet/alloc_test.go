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
// loop (38,786 allocations for 15,989 deliveries); what is left now is
// the route objects themselves, one set per changed export class. The
// bound is half the old figure.
func TestDeltaAllocationsPerDelivery(t *testing.T) {
	const parentAllocsPerDelivery = 2.43
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
	before := w.Net.Steps()
	allocs := testing.AllocsPerRun(2, reconverge) // one unmeasured pass, then two measured
	deliveries := float64(w.Net.Steps()-before) / 3
	if deliveries < 10000 {
		t.Fatalf("a pass delivered %.0f updates; the loop no longer reconverges the world", deliveries)
	}
	got := allocs / deliveries
	t.Logf("%.0f allocations / %.0f deliveries = %.3f per delivery (parent: %.2f)", allocs, deliveries, got, parentAllocsPerDelivery)
	if got > parentAllocsPerDelivery/2 {
		t.Errorf("%.3f allocations per delivery, want at most %.3f", got, parentAllocsPerDelivery/2)
	}
}
