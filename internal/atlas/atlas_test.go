package atlas

import (
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/netx"
	"bgpworms/internal/policy"
	"bgpworms/internal/router"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

var pfx = netx.MustPrefix("203.0.113.0/24")

// chainNet: 1 < 2 < 3 > 4 > 5 and 3 offers RTBH via 3:666.
func chainNet(t *testing.T) *simnet.Network {
	t.Helper()
	g := topo.NewGraph()
	for _, e := range [][2]topo.ASN{{1, 2}, {2, 3}, {4, 3}, {5, 4}} {
		if err := g.AddCustomerProvider(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return simnet.New(g, func(asn topo.ASN) router.Config {
		cfg := simnet.DefaultConfig(asn)
		if asn == 3 {
			cfg.Catalog = policy.NewCatalog(3).Add(policy.Service{Community: bgp.C(3, 666), Kind: policy.SvcBlackhole})
			cfg.BlackholeMinLen = 24
		}
		return cfg
	})
}

func TestVantagePointSelectionDeterministic(t *testing.T) {
	n := chainNet(t)
	cands := []topo.ASN{1, 2, 3, 4, 5}
	p1 := New(n, cands, 3, 42)
	p2 := New(n, cands, 3, 42)
	if len(p1.VPs()) != 3 {
		t.Fatalf("vps=%d", len(p1.VPs()))
	}
	for i := range p1.VPs() {
		if p1.VPs()[i] != p2.VPs()[i] {
			t.Fatal("selection not deterministic")
		}
	}
	p3 := New(n, cands, 3, 43)
	same := true
	for i := range p1.VPs() {
		if p1.VPs()[i] != p3.VPs()[i] {
			same = false
		}
	}
	if same {
		t.Log("different seed produced same draw (possible but unlikely)")
	}
	// Count larger than pool.
	p4 := New(n, cands, 100, 1)
	if len(p4.VPs()) != 5 {
		t.Fatalf("overdraw=%d", len(p4.VPs()))
	}
}

func TestPingBeforeAfterBlackhole(t *testing.T) {
	n := chainNet(t)
	platform := New(n, []topo.ASN{4, 5}, 2, 7)
	dst := netx.NthAddr(pfx, 1)

	// Step 1: announce plain.
	if _, err := n.Announce(1, pfx); err != nil {
		t.Fatal(err)
	}
	before := platform.PingAll(dst)
	if before.ResponsiveCount() != 2 {
		t.Fatalf("before=%d", before.ResponsiveCount())
	}

	// Step 3: re-announce tagged with AS3's blackhole community.
	n.Withdraw(1, pfx)
	if _, err := n.Announce(1, pfx, bgp.C(3, 666)); err != nil {
		t.Fatal(err)
	}
	after := platform.PingAll(dst)
	if after.ResponsiveCount() != 0 {
		t.Fatalf("after=%d (traffic from 4,5 must die at AS3)", after.ResponsiveCount())
	}
	lost := LostVPs(before, after)
	if len(lost) != 2 {
		t.Fatalf("lost=%v", lost)
	}
}

func TestTracerouteAll(t *testing.T) {
	n := chainNet(t)
	platform := New(n, []topo.ASN{4, 5}, 2, 7)
	n.Announce(1, pfx)
	vps := platform.VPs()
	if len(vps) != 2 {
		t.Fatalf("vps=%d", len(vps))
	}
	for _, vp := range vps {
		tr := n.Forward(vp.AS, netx.NthAddr(pfx, 1))
		if tr.Outcome != simnet.Delivered || tr.FinalAS != 1 {
			t.Fatalf("trace=%+v", tr)
		}
	}
}

func TestVPAccessor(t *testing.T) {
	n := chainNet(t)
	platform := New(n, []topo.ASN{1, 2}, 2, 1)
	if _, ok := platform.VP(0); !ok {
		t.Fatal("VP 0 missing")
	}
	if _, ok := platform.VP(99); ok {
		t.Fatal("VP 99 should be absent")
	}
}

func TestLostVPsEmptyWhenNoChange(t *testing.T) {
	n := chainNet(t)
	platform := New(n, []topo.ASN{4, 5}, 2, 7)
	n.Announce(1, pfx)
	dst := netx.NthAddr(pfx, 1)
	a := platform.PingAll(dst)
	b := platform.PingAll(dst)
	if len(LostVPs(a, b)) != 0 {
		t.Fatal("no VPs should be lost")
	}
}
