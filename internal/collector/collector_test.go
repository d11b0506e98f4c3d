package collector

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"bgpworms/internal/bgp"
	"bgpworms/internal/mrt"
	"bgpworms/internal/netx"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

var (
	pfx = netx.MustPrefix("203.0.113.0/24")
	t0  = time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)
)

// testNet: 1 (stub) < 2 < 3 (tier1) > 4 > 5 (stub); 3 peers nobody.
func testNet(t *testing.T) *simnet.Network {
	t.Helper()
	g := topo.NewGraph()
	for _, e := range [][2]topo.ASN{{1, 2}, {2, 3}, {4, 3}, {5, 4}} {
		if err := g.AddCustomerProvider(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return simnet.New(g, nil)
}

func TestFullFeedRecordsUpdates(t *testing.T) {
	n := testNet(t)
	c := New(PlatformRIS, "rrc00", 60001)
	c.AddPeer(Peer{AS: 3, Feed: FullFeed})
	if err := c.Attach(n); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Announce(1, pfx, bgp.C(1, 200)); err != nil {
		t.Fatal(err)
	}
	obs := c.Observations()
	if len(obs) == 0 {
		t.Fatal("no observations")
	}
	last := obs[len(obs)-1]
	if last.PeerAS != 3 || !c.Route(last).Valid() {
		t.Fatalf("obs=%+v", last)
	}
	rt := c.Route(last).Route()
	if rt.ASPath.Origin() != 1 {
		t.Fatalf("origin=%d", rt.ASPath.Origin())
	}
	if !rt.Communities.Has(bgp.C(1, 200)) {
		t.Fatalf("communities=%v", rt.Communities)
	}
	// Timestamps are monotone.
	for i := 1; i < len(obs); i++ {
		if !obs[i].Time().After(obs[i-1].Time()) {
			t.Fatal("non-monotone clock")
		}
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}

// TestRecordedRouteSurvivesReExport: the tap keeps the delivered route
// object instead of a copy, which is only sound if nothing ever edits a
// route after it was exported. Re-announce the prefix with different
// communities, withdraw it, and announce it again — under both engines —
// and the first observation must still read, and serialize, as it did
// when it was recorded.
func TestRecordedRouteSurvivesReExport(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		n := testNet(t)
		if oracle {
			n.UseRoundsOracle()
		}
		c := New(PlatformRIS, "rrc00", 60001)
		c.AddPeer(Peer{AS: 3, Feed: FullFeed})
		if err := c.Attach(n); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Announce(1, pfx, bgp.C(1, 200)); err != nil {
			t.Fatal(err)
		}
		first := c.Observations()[0]
		want := c.Route(first).Route()
		wantWire, err := c.observationToUpdate(first)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []func() (int, error){
			func() (int, error) { return n.Announce(1, pfx, bgp.C(1, 300), bgp.C(1, 301)) },
			func() (int, error) { return n.Withdraw(1, pfx) },
			func() (int, error) { return n.Announce(1, pfx) },
		} {
			if _, err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(c.Observations()); got != 4 {
			t.Fatalf("oracle=%v: %d observations, want 4 (announce, re-announce, withdraw, announce)", oracle, got)
		}
		got := c.Observations()[0]
		if rt := c.Route(got).Route(); rt.String() != want.String() {
			t.Errorf("oracle=%v: first observation now reads %v, recorded as %v", oracle, &rt, &want)
		}
		gotWire, _ := c.observationToUpdate(got)
		a, _ := wantWire.Encode()
		b, _ := gotWire.Encode()
		if !bytes.Equal(a, b) {
			t.Errorf("oracle=%v: first observation serializes differently after later exports", oracle)
		}
	}
}

func TestCustomerFeedSeesOnlyCustomerRoutes(t *testing.T) {
	n := testNet(t)
	c := New(PlatformPCH, "ixp-rs", 60002)
	c.AddPeer(Peer{AS: 4, Feed: CustomerFeed})
	if err := c.Attach(n); err != nil {
		t.Fatal(err)
	}
	// Prefix from AS1: reaches AS4 via its provider AS3 — NOT a customer
	// route of AS4, so a customer feed must not include it.
	n.Announce(1, pfx)
	for _, ob := range c.Observations() {
		if c.Prefix(ob) == pfx {
			t.Fatal("customer feed leaked a provider-learned route")
		}
	}
	// Prefix from AS5 (customer of 4) IS seen.
	p5 := netx.MustPrefix("198.51.100.0/24")
	n.Announce(5, p5)
	found := false
	for _, ob := range c.Observations() {
		if c.Prefix(ob) == p5 {
			found = true
		}
	}
	if !found {
		t.Fatal("customer feed missing customer route")
	}
}

func TestPartialFeedDropsSome(t *testing.T) {
	n := testNet(t)
	c := New(PlatformRV, "rv2", 60003)
	c.AddPeer(Peer{AS: 3, Feed: PartialFeed})
	if err := c.Attach(n); err != nil {
		t.Fatal(err)
	}
	// Announce many prefixes; roughly half should be observed.
	total := 40
	for i := 0; i < total; i++ {
		p := netx.PrefixV4(100, byte(i), 0, 0, 24)
		if _, err := n.Announce(1, p); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, ob := range c.Observations() {
		seen[c.Prefix(ob).String()] = true
	}
	if len(seen) == 0 || len(seen) >= total {
		t.Fatalf("partial feed kept %d of %d", len(seen), total)
	}
}

func TestWithdrawalsRecorded(t *testing.T) {
	n := testNet(t)
	c := New(PlatformIS, "iso1", 60004)
	c.AddPeer(Peer{AS: 3, Feed: FullFeed})
	c.Attach(n)
	n.Announce(1, pfx)
	n.Withdraw(1, pfx)
	var withdrawals int
	for _, ob := range c.Observations() {
		if ob.Route == 0 && c.Prefix(ob) == pfx {
			withdrawals++
		}
	}
	if withdrawals == 0 {
		t.Fatal("no withdrawal recorded")
	}
}

func readAll(t *testing.T, data []byte) []mrt.Record {
	t.Helper()
	r := mrt.NewReader(bytes.NewReader(data))
	var out []mrt.Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

func TestWriteUpdatesMRTRoundTrip(t *testing.T) {
	n := testNet(t)
	c := New(PlatformRIS, "rrc01", 60005)
	c.AddPeer(Peer{AS: 3, Feed: FullFeed})
	c.Attach(n)
	n.Announce(1, pfx, bgp.C(1, 200))
	n.Withdraw(1, pfx)

	var buf bytes.Buffer
	count, err := c.WriteUpdatesMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := readAll(t, buf.Bytes())
	if len(recs) != count || count != len(c.Observations()) {
		t.Fatalf("count=%d recs=%d obs=%d", count, len(recs), len(c.Observations()))
	}
	// First record must decode as an UPDATE with our community.
	var sawAnnounce, sawWithdraw bool
	for _, rec := range recs {
		m := rec.(*mrt.BGP4MPMessage)
		if m.LocalAS != 60005 || m.PeerAS != 3 {
			t.Fatalf("session fields: %+v", m)
		}
		u := m.Message.(*bgp.Update)
		if len(u.NLRI) > 0 {
			sawAnnounce = true
			if u.NLRI[0] != pfx {
				t.Fatalf("nlri=%v", u.NLRI)
			}
			if !u.Attrs.Communities.Has(bgp.C(1, 200)) {
				t.Fatalf("communities=%v", u.Attrs.Communities)
			}
		}
		if len(u.Withdrawn) > 0 {
			sawWithdraw = true
		}
	}
	if !sawAnnounce || !sawWithdraw {
		t.Fatalf("announce=%v withdraw=%v", sawAnnounce, sawWithdraw)
	}
}

// TestRIBSnapshotRefusesForeignNetwork: a collector keeps its network's
// route arena, not the network, so the RIB dump takes the network as an
// argument and refuses one whose arena is not the collector's.
func TestRIBSnapshotRefusesForeignNetwork(t *testing.T) {
	n := testNet(t)
	c := New(PlatformRV, "rv1", 60006)
	c.AddPeer(Peer{AS: 3, Feed: FullFeed})
	if err := c.Attach(n); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.WriteRIBSnapshotMRT(&buf, testNet(t), t0); err == nil {
		t.Fatal("a RIB snapshot through another network's arena was written")
	}
	if buf.Len() != 0 {
		t.Fatalf("the refused snapshot wrote %d bytes", buf.Len())
	}
	if _, err := c.WriteRIBSnapshotMRT(&buf, n, t0); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRIBSnapshotMRT(t *testing.T) {
	n := testNet(t)
	c := New(PlatformRV, "rv1", 60006)
	c.AddPeer(Peer{AS: 3, Feed: FullFeed})
	c.AddPeer(Peer{AS: 4, Feed: FullFeed})
	c.Attach(n)
	n.Announce(1, pfx, bgp.C(1, 200))
	n.Announce(5, netx.MustPrefix("198.51.100.0/24"))

	var buf bytes.Buffer
	if _, err := c.WriteRIBSnapshotMRT(&buf, n, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	recs := readAll(t, buf.Bytes())
	pit, ok := recs[0].(*mrt.PeerIndexTable)
	if !ok || len(pit.Peers) != 2 || pit.ViewName != "rv1" {
		t.Fatalf("pit=%+v", recs[0])
	}
	ribs := 0
	entries := 0
	for _, rec := range recs[1:] {
		rb := rec.(*mrt.RIB)
		ribs++
		entries += len(rb.Entries)
		for _, e := range rb.Entries {
			if int(e.PeerIndex) >= len(pit.Peers) {
				t.Fatal("peer index out of range")
			}
		}
	}
	if ribs != 2 {
		t.Fatalf("ribs=%d", ribs)
	}
	// Both peers contribute an entry for each prefix.
	if entries < 3 {
		t.Fatalf("entries=%d", entries)
	}
}

// TestObservationHoldsNoPointer: an observation is a record of ids and
// values, so a collector's archive is never scanned by the garbage
// collector, and it stays at 24 bytes.
func TestObservationHoldsNoPointer(t *testing.T) {
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
	check(reflect.TypeFor[Observation](), "Observation")
	if size := unsafe.Sizeof(Observation{}); size > 24 {
		t.Errorf("an observation is %d bytes, want at most 24", size)
	}
}

func TestFeedTypeStrings(t *testing.T) {
	for _, f := range []FeedType{FullFeed, PartialFeed, CustomerFeed, FeedType(99)} {
		if f.String() == "" {
			t.Fatal("empty feed string")
		}
	}
}

func TestPeersSortedAndSynthesizedIPs(t *testing.T) {
	c := New(PlatformRIS, "x", 60007)
	c.AddPeer(Peer{AS: 9})
	c.AddPeer(Peer{AS: 3})
	ps := c.Peers()
	if len(ps) != 2 || ps[0].AS != 3 || ps[1].AS != 9 {
		t.Fatalf("peers=%v", ps)
	}
	if !ps[0].IP.IsValid() || ps[0].IP == ps[1].IP {
		t.Fatal("synthesized IPs invalid")
	}
}
