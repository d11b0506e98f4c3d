package watch

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
)

// These tests pin the "Engine locking" rules on Engine from the inside:
// they need shardOf and a shard's queue length, which no exported name
// gives away.

// gate is a detector that parks its shard worker on every event for one
// prefix until release is closed: the stalled worker the back-pressure
// tests need, with no timing in it.
type gate struct {
	slow    netip.Prefix
	release chan struct{}
}

func (gate) Name() string { return "gate" }
func (g gate) Observe(_ *PrefixState, ev *feed.Event, _ func(Alert)) {
	if ev.Prefix == g.slow {
		<-g.release
	}
}

// sequencedFeed is 24,000 pre-sequenced, pre-timed events over 512
// prefixes whose alerts depend on what each prefix's window held before:
// fresh off-path communities, blackhole episodes, origin shifts,
// withdrawals. Reordering two events of one prefix changes the alert set.
func sequencedFeed() []feed.Event {
	rng := rand.New(rand.NewSource(23))
	events := make([]feed.Event, 24000)
	for i := range events {
		pi := rng.Intn(512)
		peer, origin := uint32(1+rng.Intn(4)), uint32(1000+pi)
		ev := feed.Event{
			Seq:    uint64(i + 1),
			Time:   feed.LogicalTime(uint64(i + 1)),
			PeerAS: peer,
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(pi >> 8), byte(pi), 0}), 24),
			ASPath: []uint32{peer, 50, origin},
		}
		switch rng.Intn(8) {
		case 0:
			ev.Withdraw, ev.ASPath = true, nil
		case 1:
			ev.Communities = bgp.NewCommunitySet(bgp.C(uint16(5000+rng.Intn(48)), 1))
		case 2:
			ev.Communities = bgp.NewCommunitySet(bgp.C(50, 666))
		case 3:
			ev.ASPath[2] = origin + uint32(rng.Intn(2))
		default:
			ev.Communities = bgp.NewCommunitySet(bgp.C(50, 100))
		}
		events[i] = ev
	}
	return events
}

func alertBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	b, err := json.Marshal(e.Alerts())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAlertsOfFiltersAlerts: one detector's view is Alerts() filtered
// to that detector, order included, at any shard count, for every
// default detector and for one that does not exist.
func TestAlertsOfFiltersAlerts(t *testing.T) {
	events := sequencedFeed()
	names := []string{"no-such-detector"}
	dets, _ := ResolveDetectors(nil, nil)
	for _, d := range dets {
		names = append(names, d.Name())
	}
	for _, shards := range []int{1, 4, 16} {
		e := NewEngine(Config{Shards: shards})
		for _, ev := range events {
			e.Ingest(ev)
		}
		e.Close()
		all, raised := e.Alerts(), 0
		for _, name := range names {
			var want []Alert
			for _, a := range all {
				if a.Detector == name {
					want = append(want, a)
				}
			}
			if got := e.AlertsOf(name); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: AlertsOf(%q) gave %d alerts, filtering Alerts() %d, or another order", shards, name, len(got), len(want))
			}
			if len(want) > 0 {
				raised++
			}
		}
		if raised < 2 {
			t.Fatalf("shards=%d: alerts from %d detectors; the comparison needs several", shards, raised)
		}
	}
}

// TestConcurrentProducersKeepShardFIFO: eight producers, each owning a
// disjoint prefix set and ingesting its events in its own order, while
// two more goroutines call Dispatch and Flush in a loop and one shard's
// worker is parked behind a full queue. Every sender then waits on
// Engine.mu or on the queue, and the parked worker must still be able to
// finish — workers never take Engine.mu, or this test hangs. Once it is
// released, every prefix's window must be chronological and the alert
// set equal to a single-producer run, at any shard count. (A send moved
// outside Engine.mu reorders runs only if the sender is descheduled
// between unlock and send, which a test cannot force: that half of the
// guarantee is that the send is under the lock, not this test.)
// withGate is the default detector set with g appended.
func withGate(g gate) []Detector {
	dets, _ := ResolveDetectors(nil, nil)
	return append(dets, g)
}

func TestConcurrentProducersKeepShardFIFO(t *testing.T) {
	events := sequencedFeed()
	open := make(chan struct{})
	close(open)
	ref := NewEngine(Config{Shards: 1, Detectors: withGate(gate{release: open})})
	for _, ev := range events {
		ref.Ingest(ev)
	}
	ref.Close()
	want := alertBytes(t, ref)
	if len(ref.Alerts()) < 1000 {
		t.Fatalf("feed raised %d alerts; the comparison needs a few thousand", len(ref.Alerts()))
	}

	const producers = 8
	for _, shards := range []int{1, 4, 16} {
		g := gate{slow: events[0].Prefix, release: make(chan struct{})}
		e := NewEngine(Config{Shards: shards, Detectors: withGate(g)})
		slow := e.shards[e.shardOf(g.slow)]

		// Park the worker and fill its queue to the brim, one event per
		// run: the first queueDepth+1 events of the slow shard, which is a
		// prefix of every one of its prefixes' own sequences. The rest go
		// to the producers, by prefix.
		own := make([][]feed.Event, producers)
		filled := 0
		for _, ev := range events {
			if filled <= queueDepth && e.shards[e.shardOf(ev.Prefix)] == slow {
				e.Ingest(ev)
				e.Dispatch()
				filled++
				continue
			}
			k := int(ev.Prefix.Addr().As4()[2]) % producers
			own[k] = append(own[k], ev)
		}
		if len(slow.ch) != queueDepth {
			t.Fatalf("shards=%d: slow shard queues %d runs after the fill, want %d", shards, len(slow.ch), queueDepth)
		}

		var feeds, helpers sync.WaitGroup
		var stop atomic.Bool
		for _, mine := range own {
			feeds.Add(1)
			go func() {
				defer feeds.Done()
				for _, ev := range mine {
					e.Ingest(ev)
				}
			}()
		}
		for _, call := range []func(){e.Dispatch, e.Flush} {
			helpers.Add(1)
			go func() {
				defer helpers.Done()
				for !stop.Load() {
					call()
					runtime.Gosched()
				}
			}()
		}
		// Let the senders pile up behind the full queue; the sleep only
		// widens the window, nothing below depends on it.
		time.Sleep(5 * time.Millisecond)
		if len(slow.ch) != queueDepth {
			t.Fatalf("shards=%d: the parked worker's queue moved (%d runs)", shards, len(slow.ch))
		}
		close(g.release)
		feeds.Wait()
		stop.Store(true)
		helpers.Wait()
		e.Close()

		if st := e.Stats(); st.Ingested != uint64(len(events)) || st.Processed != st.Ingested {
			t.Fatalf("shards=%d: ingested %d, processed %d of %d events", shards, st.Ingested, st.Processed, len(events))
		}
		for _, w := range e.ExportState().Prefixes {
			for i := 1; i < w.Len(); i++ {
				if w.At(i-1).Seq() >= w.At(i).Seq() {
					t.Fatalf("shards=%d: %s window out of order: seq %d before %d",
						shards, w.Prefix, w.At(i-1).Seq(), w.At(i).Seq())
				}
			}
		}
		if got := alertBytes(t, e); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: alert set differs from the single-producer run (%d vs %d bytes)", shards, len(got), len(want))
		}
	}
}

// TestFlushAfterCloseWaitsForWorkers: a Flush that finds the engine
// closed must not return before the workers have applied what Close
// queued. The worker is parked, so an early return is caught with events
// still unapplied.
func TestFlushAfterCloseWaitsForWorkers(t *testing.T) {
	p := netip.MustParsePrefix("203.0.113.0/24")
	g := gate{slow: p, release: make(chan struct{})}
	e := NewEngine(Config{Shards: 1, Detectors: []Detector{g}})
	const n = 300
	for i := 0; i < n; i++ {
		e.Ingest(feed.Event{PeerAS: 1, Prefix: p, ASPath: []uint32{1}})
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	for isClosed := false; !isClosed; runtime.Gosched() {
		e.mu.Lock()
		isClosed = e.closed
		e.mu.Unlock()
	}
	flushed := make(chan uint64)
	go func() {
		e.Flush()
		flushed <- e.processed.Load()
	}()
	select {
	case got := <-flushed:
		t.Fatalf("Flush returned on a closed engine with %d of %d events applied", got, n)
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	if got := <-flushed; got != n {
		t.Fatalf("Flush returned with %d of %d events applied", got, n)
	}
	<-closed
}

// TestIngestDispatchFlushRaceClose: every entry point racing Close
// returns (no deadlock, no send on a closed queue), and whatever Ingest
// accepted before the close is applied once Close returns.
func TestIngestDispatchFlushRaceClose(t *testing.T) {
	events := sequencedFeed()[:4000]
	for round := 0; round < 20; round++ {
		e := NewEngine(Config{Shards: 4})
		var wg sync.WaitGroup
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := k; i < len(events); i += 4 {
					ev := events[i]
					ev.Seq = 0
					e.Ingest(ev)
				}
			}()
		}
		for _, call := range []func(){e.Dispatch, e.Flush, e.Flush} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					call()
				}
			}()
		}
		for e.ingested.Load() < uint64(100*round) {
			runtime.Gosched()
		}
		e.Close()
		accepted := e.ingested.Load()
		if got := e.processed.Load(); got != accepted {
			t.Fatalf("round %d: Close returned with %d of %d accepted events applied", round, got, accepted)
		}
		wg.Wait()
		if got := e.ingested.Load(); got != accepted {
			t.Fatalf("round %d: %d events accepted after Close returned", round, got-accepted)
		}
	}
}
