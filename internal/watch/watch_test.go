package watch_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	_ "bgpworms/internal/attack" // registers the builtin scenarios
	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
	"bgpworms/internal/watch"
)

// churnFeed builds a deterministic real-shaped feed: a tiny Internet
// with a month of churn (including RTBH episodes), exported through
// every collector's recorded observations.
func churnFeed(t testing.TB) func(e *watch.Engine) {
	t.Helper()
	events := churnEvents(t)
	return func(e *watch.Engine) {
		for _, ev := range events {
			e.Ingest(ev)
		}
	}
}

func runFeed(t testing.TB, replay func(*watch.Engine), cfg watch.Config) ([]watch.Alert, watch.Stats) {
	t.Helper()
	e := watch.NewEngine(cfg)
	defer e.Close()
	replay(e)
	e.Flush()
	return e.Alerts(), e.Stats()
}

// TestWatchDeterminismAcrossShards is the acceptance gate: the same
// feed must yield a bit-identical alert set whether one shard or eight
// process it.
func TestWatchDeterminismAcrossShards(t *testing.T) {
	replay := churnFeed(t)
	var ref []byte
	for _, shards := range []int{1, 2, 8} {
		alerts, st := runFeed(t, replay, watch.Config{Shards: shards})
		if st.Processed != st.Ingested {
			t.Fatalf("shards=%d: processed %d of %d ingested events", shards, st.Processed, st.Ingested)
		}
		if len(alerts) == 0 {
			t.Fatalf("shards=%d: churn replay raised no alerts", shards)
		}
		b, err := json.Marshal(alerts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Fatalf("alert set differs between shard counts:\nshards=1: %s\nshards=%d: %s", ref, shards, b)
		}
	}
	// Where a run is cut must be as unobservable as the shard count: a
	// draining feed dispatches partial batches at arbitrary points.
	events := churnEvents(t)
	rng := rand.New(rand.NewSource(16))
	alerts, _ := runFeed(t, func(e *watch.Engine) {
		for _, ev := range events {
			e.Ingest(ev)
			if rng.Intn(5) == 0 {
				e.Dispatch()
			}
		}
	}, watch.Config{Shards: 3})
	if b, _ := json.Marshal(alerts); !bytes.Equal(ref, b) {
		t.Fatalf("alert set differs when runs are dispatched at random points (%d vs %d bytes)", len(b), len(ref))
	}
}

// TestWatchRepeatability pins that two runs over the identical feed and
// config agree — no map-iteration order leaks into alerts or stats.
func TestWatchRepeatability(t *testing.T) {
	replay := churnFeed(t)
	a1, s1 := runFeed(t, replay, watch.Config{Shards: 4})
	a2, s2 := runFeed(t, replay, watch.Config{Shards: 4})
	j1, _ := json.Marshal(a1)
	j2, _ := json.Marshal(a2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("alerts differ across identical runs")
	}
	if s1.Alerts != s2.Alerts || s1.Ingested != s2.Ingested || s1.TrackedPrefixes != s2.TrackedPrefixes {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
}

// TestWatchQueriesWhileIngesting exercises the concurrent-reader
// contract: stats, alerts, and prefix lookups stay consistent while a
// feed is mid-flight.
func TestWatchQueriesWhileIngesting(t *testing.T) {
	replay := churnFeed(t)
	e := watch.NewEngine(watch.Config{Shards: 4})
	defer e.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
			}
			st := e.Stats()
			if st.Processed > st.Ingested {
				t.Error("processed ran ahead of ingested")
				return
			}
			_ = e.Alerts()
		}
	}()
	replay(e)
	e.Flush()
	done <- struct{}{}
	<-done
	st := e.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending=%d after flush", st.Pending)
	}
	if st.Processed != st.Ingested {
		t.Fatalf("processed=%d != ingested=%d", st.Processed, st.Ingested)
	}
}

// TestWatchPrefixInfo checks the per-prefix query surface.
func TestWatchPrefixInfo(t *testing.T) {
	e := watch.NewEngine(watch.Config{Shards: 2})
	defer e.Close()
	p := netx.MustPrefix("203.0.113.0/24")
	e.Ingest(feed.Event{PeerAS: 10, Prefix: p, ASPath: []uint32{10, 20, 30},
		Communities: bgp.NewCommunitySet(bgp.C(30, 100))})
	e.Ingest(feed.Event{PeerAS: 10, Prefix: p, Withdraw: true})
	e.Flush()
	info, ok := e.PrefixInfo(p)
	if !ok {
		t.Fatal("prefix not tracked")
	}
	if info.WindowEvents != 2 || info.TotalEvents != 2 || !info.Withdrawn {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Communities) != 1 || info.Communities[0] != "30:100" {
		t.Fatalf("communities = %v", info.Communities)
	}
	if _, ok := e.PrefixInfo(netx.MustPrefix("198.51.100.0/24")); ok {
		t.Fatal("untracked prefix reported present")
	}
}

// TestWatchBackpressureIsLossless pins the overload contract: more events
// than a stalled shard's queue holds make the producer wait, and every
// one of them is applied.
func TestWatchBackpressureIsLossless(t *testing.T) {
	e := watch.NewEngine(watch.Config{Shards: 1, Detectors: []watch.Detector{stall{}}})
	defer e.Close()
	p := netx.MustPrefix("203.0.113.0/24")
	const n = 10000 // the queue holds 64 runs of 128
	for i := 0; i < n; i++ {
		e.Ingest(feed.Event{PeerAS: 1, Prefix: p, ASPath: []uint32{1}})
	}
	e.Flush()
	if st := e.Stats(); st.Ingested != n || st.Processed != n || st.Pending != 0 {
		t.Fatalf("ingested %d, processed %d, pending %d; want %d, %d, 0", st.Ingested, st.Processed, st.Pending, n, n)
	}
}

// stall is a test detector slow enough to back the queue up.
type stall struct{}

func (stall) Name() string { return "stall" }
func (stall) Observe(st *watch.PrefixState, ev *feed.Event, emit func(watch.Alert)) {
	for i := 0; i < 1000; i++ {
		_ = i * i
	}
}

// TestWatchAlertRetentionCap pins the long-running-daemon bound: old
// alerts are shed once the cap is reached, and the shedding is
// accounted for.
func TestWatchAlertRetentionCap(t *testing.T) {
	e := watch.NewEngine(watch.Config{Shards: 1, MaxAlerts: 8, WindowEvents: 4})
	defer e.Close()
	p := netx.MustPrefix("203.0.113.0/24")
	const fired = 64
	for i := 0; i < fired; i++ {
		// Every event carries a fresh off-path community: one squat
		// alert each (the 4-event window forgets old communities).
		e.Ingest(feed.Event{PeerAS: 1, Prefix: p, ASPath: []uint32{1, 2},
			Communities: bgp.NewCommunitySet(bgp.C(uint16(5000+i), 1))})
	}
	e.Flush()
	st := e.Stats()
	if st.Alerts < fired {
		t.Fatalf("alerts fired = %d, want >= %d", st.Alerts, fired)
	}
	if st.AlertsTruncated == 0 {
		t.Fatal("cap never truncated")
	}
	retained := len(e.Alerts())
	if uint64(retained)+st.AlertsTruncated != st.Alerts {
		t.Fatalf("retained %d + truncated %d != fired %d", retained, st.AlertsTruncated, st.Alerts)
	}
	if retained > 9 { // per-shard share is MaxAlerts/Shards+1
		t.Fatalf("retained %d exceeds cap", retained)
	}
	// The newest alert must survive truncation.
	alerts := e.Alerts()
	if alerts[len(alerts)-1].Seq != fired {
		t.Fatalf("newest alert seq = %d, want %d", alerts[len(alerts)-1].Seq, fired)
	}
}

// TestWatchIngestAfterClose pins that a closed engine drops ingests
// silently and keeps serving queries.
func TestWatchIngestAfterClose(t *testing.T) {
	e := watch.NewEngine(watch.Config{Shards: 1})
	p := netx.MustPrefix("203.0.113.0/24")
	e.Ingest(feed.Event{PeerAS: 1, Prefix: p, ASPath: []uint32{1}})
	e.Close()
	before := e.Stats().Ingested
	e.Ingest(feed.Event{PeerAS: 1, Prefix: p, ASPath: []uint32{1}})
	if e.Stats().Ingested != before {
		t.Fatal("ingest after close was counted")
	}
	if _, ok := e.PrefixInfo(p); !ok {
		t.Fatal("queries must survive Close")
	}
}
