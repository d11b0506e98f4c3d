package simnet

// Snapshot lifecycle and isolation properties. The randomized test
// below is meant to run under the race detector: concurrent forks of
// one snapshot perform interleaved announce/withdraw/discard work, and
// nothing may bleed between forks or back into the frozen parent.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/topo"
)

// frozenWorld builds the Fig. 2 topology, converges two announcements,
// and freezes it.
func frozenWorld(t *testing.T) (*Network, *Snapshot) {
	t.Helper()
	g := paperFig2(t)
	n := New(g, nil)
	if _, err := n.Announce(1, pfx, bgp.C(1, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Announce(6, netx.MustPrefix("198.51.100.0/24")); err != nil {
		t.Fatal(err)
	}
	snap, err := n.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return n, snap
}

// collapseRIBs renders every router's RIB, the byte-wise state the
// frozen parent must hold forever.
func collapseRIBs(n *Network) string {
	var b strings.Builder
	for _, asn := range n.ASes() {
		for _, rt := range n.Router(asn).RIB() {
			fmt.Fprintf(&b, "AS%d %s\n", asn, rt)
		}
	}
	return b.String()
}

// TestSnapshotForkIsolation is the property test: randomized
// fork/mutate/discard interleavings on one snapshot, concurrently,
// with the race detector watching. Each fork announces and withdraws
// its own prefixes; afterwards the parent must be byte-identical to
// its frozen state and no fork may see a sibling's prefix.
func TestSnapshotForkIsolation(t *testing.T) {
	parent, snap := frozenWorld(t)
	before := collapseRIBs(parent)

	const goroutines = 8
	forks := make([]*Network, goroutines)
	prefixes := make([]netip.Prefix, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			f, err := snap.Fork()
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			own := netx.MustPrefix(fmt.Sprintf("10.%d.0.0/16", i))
			origin := topo.ASN(1 + rng.Intn(6))
			for op := 0; op < 4+rng.Intn(4); op++ {
				switch rng.Intn(3) {
				case 0:
					if _, err := f.Announce(origin, own, bgp.C(uint16(origin), uint16(600+i))); err != nil {
						t.Errorf("fork %d announce: %v", i, err)
						return
					}
				case 1:
					if _, err := f.Withdraw(origin, own); err != nil {
						t.Errorf("fork %d withdraw: %v", i, err)
						return
					}
				case 2:
					// Perturb shared state: withdraw and re-announce the
					// snapshot's own prefix inside this fork only.
					if _, err := f.Withdraw(1, pfx); err != nil {
						t.Errorf("fork %d withdraw shared: %v", i, err)
						return
					}
					if _, err := f.Announce(1, pfx, bgp.C(1, 200)); err != nil {
						t.Errorf("fork %d re-announce shared: %v", i, err)
						return
					}
				}
			}
			// Leave the fork with its own prefix present.
			if _, err := f.Announce(origin, own, bgp.C(uint16(origin), uint16(600+i))); err != nil {
				t.Errorf("fork %d final announce: %v", i, err)
				return
			}
			forks[i], prefixes[i] = f, own
		}(i)
	}
	wg.Wait()

	if after := collapseRIBs(parent); after != before {
		t.Fatal("frozen parent state changed under concurrent forks")
	}
	for i, f := range forks {
		if f == nil {
			continue
		}
		if _, ok := f.Router(6).BestRoute(prefixes[i]); !ok {
			t.Errorf("fork %d lost its own prefix %s", i, prefixes[i])
		}
		for j, p := range prefixes {
			if j == i {
				continue
			}
			if _, ok := f.Router(6).BestRoute(p); ok {
				t.Errorf("fork %d sees fork %d's prefix %s — cross-fork bleed", i, j, p)
			}
		}
		if _, ok := parent.Router(6).BestRoute(prefixes[i]); ok {
			t.Errorf("frozen parent sees fork %d's prefix — fork leaked upward", i)
		}
	}
	if snap.Forks() != goroutines {
		t.Errorf("Forks() = %d, want %d", snap.Forks(), goroutines)
	}
}

// TestForkRoutesIsolated pins the route-arena half of fork isolation:
// sibling forks of one sealed world converge a prefix each, one after
// the other, and store their routes in clones of the snapshot's arena,
// which share its pages — its last one with room to spare. A fork's
// routes must start on a page of its own: each fork must read back
// exactly what it read right after its own run, whatever its sibling
// stored since, and the snapshot must read as it did before.
func TestForkRoutesIsolated(t *testing.T) {
	parent, snap := frozenWorld(t)
	before := collapseRIBs(parent)
	var forks []*Network
	var reads []string
	for i := range 2 {
		f, err := snap.Fork()
		if err != nil {
			t.Fatal(err)
		}
		own := netx.MustPrefix(fmt.Sprintf("10.%d.0.0/16", 70+i))
		if _, err := f.Announce(topo.ASN(2+i), own, bgp.C(uint16(2+i), uint16(700+i))); err != nil {
			t.Fatal(err)
		}
		read := collapseRIBs(f)
		if !strings.Contains(read, own.String()) {
			t.Fatalf("fork %d does not read back its own prefix %s:\n%s", i, own, read)
		}
		forks, reads = append(forks, f), append(reads, read)
	}
	for i, f := range forks {
		if got := collapseRIBs(f); got != reads[i] {
			t.Errorf("fork %d reads back differently once its sibling ran:\n%s\nwant:\n%s", i, got, reads[i])
		}
	}
	if after := collapseRIBs(parent); after != before {
		t.Error("the frozen parent reads back differently after its forks ran")
	}
}

// TestFreezeLifecycleErrors pins every loud failure mode of the
// freeze/fork/discard lifecycle.
func TestFreezeLifecycleErrors(t *testing.T) {
	parent, snap := frozenWorld(t)

	// Double freeze.
	if _, err := parent.Freeze(); err == nil {
		t.Error("second Freeze succeeded")
	}
	// Freezing a fork: its routers are sealed originals shared with
	// siblings.
	f, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Freeze(); err == nil {
		t.Error("Freeze of a fork succeeded")
	}
	// Freezing an unconverged network.
	g := paperFig2(t)
	n := New(g, nil)
	if _, err := n.Announce(1, pfx); err != nil {
		t.Fatal(err)
	}
	n.schedule(1, pfx)
	if _, err := n.Freeze(); err == nil {
		t.Error("Freeze of unconverged network succeeded")
	}

	// Discard: forks fail afterwards, existing forks keep working,
	// double discard is an error.
	if err := snap.Discard(); err != nil {
		t.Fatalf("discard: %v", err)
	}
	if _, err := snap.Fork(); err == nil {
		t.Error("Fork of discarded snapshot succeeded")
	}
	if err := snap.Discard(); err == nil {
		t.Error("second Discard succeeded")
	}
	if _, err := f.Announce(2, netx.MustPrefix("10.99.0.0/16")); err != nil {
		t.Errorf("existing fork broken by discard: %v", err)
	}
}

// TestFrozenNetworkMutationPanics pins the missed-copy failure mode:
// touching a frozen network mutably must panic, not corrupt forks.
func TestFrozenNetworkMutationPanics(t *testing.T) {
	parent, _ := frozenWorld(t)
	defer func() {
		if recover() == nil {
			t.Error("mutation of frozen network did not panic")
		}
	}()
	parent.Announce(2, netx.MustPrefix("10.50.0.0/16"))
}
