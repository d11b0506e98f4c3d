package gen

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/obs"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// transcript returns a tap that formats every delivery into *out.
func transcript(out *[]string) simnet.UpdateTap {
	return func(from, to topo.ASN, prefix netip.Prefix, ref simnet.RouteRef) {
		if !ref.Valid() {
			*out = append(*out, fmt.Sprintf("%d>%d %s withdraw", from, to, prefix))
			return
		}
		rt := ref.Route()
		*out = append(*out, fmt.Sprintf("%d>%d %s %s", from, to, prefix, &rt))
	}
}

func archives(t *testing.T, w *Internet) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range w.Collectors {
		if _, err := c.WriteUpdatesMRT(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSnapshotStreamFreeForks: a snapshot built without its construction
// stream refuses a tapped fork, serves untapped ones that match a
// scratch build, and a snapshot of either kind refuses Params.Tap.
func TestSnapshotStreamFreeForks(t *testing.T) {
	snap, err := BuildSnapshot(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	if _, err := snap.Fork(transcript(&seen)); err == nil {
		t.Fatal("a tapped fork of a stream-free snapshot was handed out")
	}
	if len(seen) != 0 {
		t.Fatalf("the refused tap saw %d deliveries", len(seen))
	}
	f, err := snap.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archives(t, f), archives(t, buildTiny(t))) {
		t.Fatal("an untapped fork's collector archives differ from a scratch build's")
	}

	p := Tiny()
	p.Tap = transcript(&seen)
	if _, err := BuildSnapshot(p); err == nil {
		t.Fatal("BuildSnapshot accepted a Params.Tap")
	}
	if _, err := BuildSnapshotForReplay(p); err == nil {
		t.Fatal("BuildSnapshotForReplay accepted a Params.Tap")
	}
}

// TestForkArchivesForkOnlyPrefix: a prefix first announced on a fork is
// interned in the fork's prefix table alone, and the fork's collectors
// must archive it, and everything they inherited, as a scratch world
// given the same announcement does.
func TestForkArchivesForkOnlyPrefix(t *testing.T) {
	snap, err := BuildSnapshot(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	f, err := snap.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := buildTiny(t)
	p := netip.MustParsePrefix("192.0.2.0/24")
	for _, w := range []*Internet{cold, f} {
		if _, err := w.Net.Announce(ASNStubBase, p, bgp.C(uint16(ASNStubBase), 7)); err != nil {
			t.Fatal(err)
		}
	}
	sibling, err := snap.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, known := sibling.Net.Routes().Table().Lookup(p); known {
		t.Fatal("a fork's announcement reached the snapshot's prefix table")
	}
	recorded := 0
	for _, c := range f.Collectors {
		for _, ob := range c.Observations() {
			if c.Prefix(ob) == p {
				recorded++
			}
		}
	}
	if recorded == 0 {
		t.Fatal("no forked collector recorded the fork-only prefix; the check needs one")
	}
	if !bytes.Equal(archives(t, f), archives(t, cold)) {
		t.Fatal("a fork's collector archives differ from a scratch build's after the same announcement")
	}
}

// TestSnapshotReplaysConstructionStream: every tapped fork of a
// recording snapshot sees the transcript a tap on a scratch Build sees.
func TestSnapshotReplaysConstructionStream(t *testing.T) {
	var want []string
	p := Tiny()
	p.Tap = transcript(&want)
	if _, err := Build(p); err != nil {
		t.Fatal(err)
	}
	snap, err := BuildSnapshotForReplay(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for fork := range 2 {
		var got []string
		if _, err := snap.Fork(transcript(&got)); err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("fork %d: replayed %d deliveries, a scratch build's tap saw %d (or they differ)", fork, len(got), len(want))
		}
	}
}

// TestSnapshotTapReplayCounts pins simnet_tap_replayed_total over a
// tiny snapshot build: stream-free, the delta engine buffers only the
// deliveries addressed to collectors, as counted by a whole-world tap on
// the rounds oracle; recording, it buffers every delivery.
func TestSnapshotTapReplayCounts(t *testing.T) {
	replayed := obs.Default.Counter("simnet_tap_replayed_total", "")
	perReceiver := map[topo.ASN]int{}
	p := Tiny()
	p.Engine = "rounds"
	p.Tap = func(_, to topo.ASN, _ netip.Prefix, _ simnet.RouteRef) { perReceiver[to]++ }
	w, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	toCollectors := 0
	for _, c := range w.Collectors {
		toCollectors += perReceiver[c.ASN]
	}

	before := replayed.Value()
	snap, err := BuildSnapshot(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	got, steps := replayed.Value()-before, snap.world.Net.Steps()
	if got != uint64(toCollectors) || toCollectors == 0 || toCollectors >= steps {
		t.Fatalf("stream-free: %d buffered for replay, want the %d of %d deliveries addressed to collectors", got, toCollectors, steps)
	}

	before = replayed.Value()
	if snap, err = BuildSnapshotForReplay(Tiny()); err != nil {
		t.Fatal(err)
	}
	if got, want := replayed.Value()-before, snap.world.Net.Steps(); got != uint64(want) {
		t.Fatalf("recording: %d buffered for replay, want all %d deliveries", got, want)
	}
}

// TestSnapshotForksRunAtTheCellPool: a snapshot converges on every CPU
// but hands out forks whose engine pool is the Params.Workers it was
// built with, and it serves params that differ from its own only in
// that pool size.
func TestSnapshotForksRunAtTheCellPool(t *testing.T) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0) + 1} {
		p := Tiny()
		p.Workers = workers
		snap, err := BuildSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := snap.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Net.Workers(); got != workers || f.Params.Workers != workers {
			t.Fatalf("built with Workers %d: the fork's pool is %d, its Params.Workers %d", workers, got, f.Params.Workers)
		}
		other := p
		other.Workers = workers + 7
		if err := snap.Compatible(other); err != nil {
			t.Fatalf("a snapshot refused params that differ only in Workers: %v", err)
		}
		other.Seed++
		if err := snap.Compatible(other); err == nil {
			t.Fatal("a snapshot accepted params with another seed")
		}
	}
}
