package router

import (
	"net/netip"
	"slices"
	"sync"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
)

// TestRouteArenaConcurrentAppends appends from several goroutines at
// once — engine-style cursors reserving blocks and single-step Adds —
// across many directory growths, then checks that every handle resolves
// to exactly the route written under it. Run it under -race: growth,
// reservation and the writes themselves must need no lock beyond the
// arena's own.
func TestRouteArenaConcurrentAppends(t *testing.T) {
	a := NewRouteArena()
	const goroutines, perG = 5, 3 * pageLen
	handles := make([][]Handle, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := a.Cursor()
			for i := range perG {
				rt := policy.Route{
					Prefix: netip.PrefixFrom(netx.V4(10, byte(g), byte(i>>8), byte(i)), 32),
					ASPath: bgp.Path(uint32(g), uint32(i)),
					MED:    uint32(i),
				}
				if g == 0 { // the single-step path
					handles[g] = append(handles[g], a.Add(&rt))
					continue
				}
				handles[g] = append(handles[g], cur.add(a.record(&rt)))
			}
			cur.Flush()
		}()
	}
	wg.Wait()

	seen := map[Handle]bool{}
	for g, hs := range handles {
		for i, h := range hs {
			if h == 0 || seen[h] {
				t.Fatalf("goroutine %d route %d got handle %d twice or the null handle", g, i, h)
			}
			seen[h] = true
			rt := a.Ref(h).Route()
			if want := netip.PrefixFrom(netx.V4(10, byte(g), byte(i>>8), byte(i)), 32); rt.Prefix != want || rt.MED != uint32(i) ||
				!slices.Equal(rt.ASPath.Sequence(), []uint32{uint32(g), uint32(i)}) {
				t.Fatalf("handle %d (goroutine %d route %d) resolves to %v", h, g, i, &rt)
			}
		}
	}
	if got := a.Routes(); got != goroutines*perG {
		t.Fatalf("Routes() = %d, want %d", got, goroutines*perG)
	}
	if a.Ref(0).Valid() {
		t.Fatal("handle 0 resolves to a route")
	}
}
