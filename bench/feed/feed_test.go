package feed

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"net/netip"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/mrt"
	"bgpworms/internal/serve"
	"bgpworms/internal/watch"
)

func build(t *testing.T, scale string, seed int64) *Feed {
	t.Helper()
	f, err := Build(scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// streamSHA hashes two and a half loops with probes, so the hash covers
// universe rotation, event time and probe placement.
func streamSHA(f *Feed) [32]byte {
	s := f.NewStream()
	return sha256.Sum256(s.Append(nil, len(f.Recs)*5/2, 100, nil))
}

func TestFeedDeterministicPerSeed(t *testing.T) {
	a, b, c := build(t, "tiny", 1), build(t, "tiny", 1), build(t, "tiny", 2)
	if !bytes.Equal(a.Blob, b.Blob) || streamSHA(a) != streamSHA(b) {
		t.Fatal("same seed produced different feeds")
	}
	if bytes.Equal(a.Blob, c.Blob) || streamSHA(a) == streamSHA(c) {
		t.Fatal("different seeds produced the same feed")
	}
}

func TestFeedRecordsDecodeAndBalance(t *testing.T) {
	f := build(t, "small", 1)
	mr := mrt.NewReader(bytes.NewReader(f.Blob))
	n := 0
	for {
		rec, err := mr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if _, ok := rec.(*mrt.BGP4MPMessage); !ok {
			t.Fatalf("record %d is %T", n, rec)
		}
		n++
	}
	if n != len(f.Recs) {
		t.Fatalf("decoded %d records, index holds %d", n, len(f.Recs))
	}
	if f.Skew2 > 1.15 || f.Skew3 > 1.15 {
		t.Fatalf("rangemap skew %.3f (2 shards) %.3f (3 shards), want <= 1.15", f.Skew2, f.Skew3)
	}
}

// TestStreamRoundTrip pushes patched loops through the daemon's own
// decoder and checks what comes out: every event, monotone event time,
// a fresh prefix universe per loop that stays with its owner shard, and
// probes exactly where the schedule says.
func TestStreamRoundTrip(t *testing.T) {
	f := build(t, "tiny", 3)
	const loops, probeEvery = 3, 50
	s := f.NewStream()
	var probeIDs []int
	raw := s.Append(nil, loops*len(f.Recs), probeEvery, func(id int) { probeIDs = append(probeIDs, id) })
	wantProbes := loops * len(f.Recs) / probeEvery
	if len(probeIDs) != wantProbes || s.Events() != loops*len(f.Recs)+wantProbes {
		t.Fatalf("stream reports %d probes, %d events; want %d probes", len(probeIDs), s.Events(), wantProbes)
	}

	var events []watch.Event
	n, err := watch.StreamMRT(bytes.NewReader(raw), "mrt:feed", func(ev watch.Event) { events = append(events, ev) })
	if err != nil || n != s.Events() {
		t.Fatalf("decoded %d events (err %v), want %d", n, err, s.Events())
	}
	rm := serve.NewRangeMap(2)
	seen := make([]map[netip.Prefix]bool, loops)
	var last time.Time
	rec, probe := 0, 0
	for i, ev := range events {
		if ev.Time.Before(last) {
			t.Fatalf("event %d: time went backwards", i)
		}
		last = ev.Time
		if want := time.Unix(baseUnix+int64(i/EventsPerSecond), 0); !ev.Time.Equal(want) {
			t.Fatalf("event %d: time %v, want %v", i, ev.Time, want)
		}
		if rec > 0 && rec%probeEvery == 0 && probe < rec/probeEvery {
			if ev.Prefix != f.ProbePrefix(probe) || !ev.Communities.Has(bgp.C(65535, 666)) {
				t.Fatalf("event %d: want probe %d (%s with 65535:666), got %s %v", i, probe, f.ProbePrefix(probe), ev.Prefix, ev.Communities)
			}
			if rm.Owner(ev.Prefix) != ProbeOwner(probe) {
				t.Fatalf("probe %d owned by shard %d", probe, rm.Owner(ev.Prefix))
			}
			probe++
			continue
		}
		loop := rec / len(f.Recs)
		if seen[loop] == nil {
			seen[loop] = make(map[netip.Prefix]bool)
		}
		seen[loop][ev.Prefix] = true
		if loop > 0 && seen[loop-1][ev.Prefix] {
			t.Fatalf("loop %d reuses prefix %s of the previous universe", loop, ev.Prefix)
		}
		rec++
	}
	for l := range seen {
		if len(seen[l]) != f.Prefixes {
			t.Fatalf("loop %d tracked %d prefixes, want %d", l, len(seen[l]), f.Prefixes)
		}
	}
	// Universe rotation keeps each record with its owner.
	for i, r := range f.Recs {
		base := f.Blob[r.Off+r.Octet]
		o0 := rm.Owner(netip.PrefixFrom(netip.AddrFrom4([4]byte{base, 0, 0, 0}), 8))
		for u := 1; u < Universes; u++ {
			o := rm.Owner(netip.PrefixFrom(netip.AddrFrom4([4]byte{rotate(base, r.region, u), 0, 0, 0}), 8))
			if o != o0 {
				t.Fatalf("record %d moves from shard %d to %d in universe %d", i, o0, o, u)
			}
		}
	}
}

func TestProbePrefixesFixed(t *testing.T) {
	f := &Feed{}
	for id, want := range map[int]string{0: "100.64.0.0/32", 1: "198.18.0.0/32", 2: "100.64.0.1/32", 513: "198.18.1.0/32"} {
		if got := f.ProbePrefix(id).String(); got != want {
			t.Errorf("probe %d = %s, want %s", id, got, want)
		}
	}
	// Whatever the seed shifts them by, probes stay in their blocks and
	// with their owner shards.
	shifted := &Feed{probeShift: probeCap - 3}
	blocks := []netip.Prefix{netip.MustParsePrefix("100.64.0.0/10"), netip.MustParsePrefix("198.18.0.0/15")}
	for id := 0; id < 16; id++ {
		if p := shifted.ProbePrefix(id); !blocks[id%2].Contains(p.Addr()) {
			t.Errorf("probe %d = %s leaves %s", id, p, blocks[id%2])
		}
	}
}
