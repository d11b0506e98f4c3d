package simnet

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/topo"
)

// meshGraph builds a 3-tier multihomed topology big enough to exercise
// concurrent rounds: a tier-1 clique, mid transits with two providers
// each, and stubs.
func meshGraph(t *testing.T) *topo.Graph {
	t.Helper()
	g := topo.NewGraph()
	for i := topo.ASN(1); i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			if err := g.AddPeering(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := topo.ASN(10); i < 22; i++ {
		if err := g.AddCustomerProvider(i, 1+(i%4)); err != nil {
			t.Fatal(err)
		}
		if err := g.AddCustomerProvider(i, 1+((i+1)%4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := topo.ASN(100); i < 140; i++ {
		if err := g.AddCustomerProvider(i, 10+(i%12)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// announceAll originates one prefix per stub plus communities, recording
// every tap delivery, and returns (tap transcript, total deliveries).
func announceAll(t *testing.T, n *Network) (string, int) {
	t.Helper()
	var tape strings.Builder
	n.Tap(func(from, to topo.ASN, prefix netip.Prefix, ref RouteRef) {
		if ref.Valid() {
			rt := ref.Route()
			fmt.Fprintf(&tape, "%d>%d %s %v %v\n", from, to, prefix, rt.ASPath.Sequence(), rt.Communities)
		} else {
			fmt.Fprintf(&tape, "%d>%d %s withdraw\n", from, to, prefix)
		}
	})
	total := 0
	for i := topo.ASN(100); i < 140; i++ {
		p := netip.PrefixFrom(netx.V4(10, byte(i>>8), byte(i), 0), 24)
		d, err := n.Announce(i, p, bgp.C(uint16(i), 100))
		if err != nil {
			t.Fatal(err)
		}
		total += d
	}
	// Withdraw a few to exercise the withdrawal path.
	for i := topo.ASN(100); i < 104; i++ {
		p := netip.PrefixFrom(netx.V4(10, byte(i>>8), byte(i), 0), 24)
		d, err := n.Withdraw(i, p)
		if err != nil {
			t.Fatal(err)
		}
		total += d
	}
	return tape.String(), total
}

// ribFingerprint renders every router's best routes deterministically.
func ribFingerprint(n *Network) string {
	var b strings.Builder
	for _, asn := range n.ASes() {
		r := n.Router(asn)
		for _, p := range r.Prefixes() {
			rt, ok := r.BestRoute(p)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "AS%d %s %v %v\n", asn, p, rt.ASPath.Sequence(), rt.Communities)
		}
	}
	return b.String()
}

// TestParallelEngineWorkerCountInvariance is the simnet determinism
// gate: Run must produce identical tap transcripts, delivery counts, and
// final RIBs for every worker count, and the rounds reference engine
// must produce the same ones.
func TestParallelEngineWorkerCountInvariance(t *testing.T) {
	type result struct {
		name  string
		tape  string
		total int
		rib   string
	}
	var results []result
	for _, oracle := range []bool{false, true} {
		for _, w := range []int{1, 2, 8} {
			n := New(meshGraph(t), nil)
			n.SetWorkers(w)
			if oracle {
				n.UseRoundsOracle()
			}
			tape, total := announceAll(t, n)
			results = append(results, result{fmt.Sprintf("oracle=%v/w%d", oracle, w), tape, total, ribFingerprint(n)})
		}
	}
	ref := results[0]
	if ref.total == 0 {
		t.Fatal("no deliveries")
	}
	for _, r := range results[1:] {
		if r.total != ref.total {
			t.Fatalf("%s: deliveries %d vs %s %d", r.name, r.total, ref.name, ref.total)
		}
		if r.tape != ref.tape {
			t.Fatalf("%s: tap transcript diverges from %s", r.name, ref.name)
		}
		if r.rib != ref.rib {
			t.Fatalf("%s: final RIBs diverge from %s", r.name, ref.name)
		}
	}
}

// TestParallelEngineConvergenceBound ensures the engine enforces the
// delivery cap instead of hanging on oscillation.
func TestParallelEngineConvergenceBound(t *testing.T) {
	n := New(meshGraph(t), nil)
	n.SetWorkers(4)
	n.SetMaxDeliveries(3)
	if _, err := n.Announce(100, netip.PrefixFrom(netx.V4(10, 0, 100, 0), 24)); err == nil {
		t.Fatal("expected convergence-bound error")
	}
}

// TestSetWorkersDefaults covers the GOMAXPROCS fallback.
func TestSetWorkersDefaults(t *testing.T) {
	n := New(meshGraph(t), nil)
	if n.Workers() != 1 {
		t.Fatalf("default workers=%d", n.Workers())
	}
	n.SetWorkers(0)
	if n.Workers() < 1 {
		t.Fatalf("workers=%d", n.Workers())
	}
	n.SetWorkers(6)
	if n.Workers() != 6 {
		t.Fatalf("workers=%d", n.Workers())
	}
}
