package watch_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bgpworms/internal/obs"
	"bgpworms/internal/watch"
)

// seriesValue extracts one series' value from a Prometheus text render.
func seriesValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", name, rest)
		}
		return v
	}
	t.Fatalf("series %s missing from exposition:\n%s", name, text)
	return 0
}

// TestWatchMetricsInvariantAcrossShards pins the determinism contract
// for instrumentation: with a blocking feed, the worker-count-invariant
// series (ingested, processed, alerts, per-detector counts) are
// identical across shard counts, and the alert set itself is
// bit-identical to an uninstrumented engine's. Racy series (drops,
// queue depth, batch timing) are deliberately not asserted.
func TestWatchMetricsInvariantAcrossShards(t *testing.T) {
	feed := churnFeed(t)
	bare, _ := runFeed(t, feed, watch.Config{Shards: 4})
	ref, _ := json.Marshal(bare)

	type invariant struct {
		ingested, processed, alerts float64
		byDetector                  map[string]float64
	}
	var want *invariant
	for _, shards := range []int{1, 4, 16} {
		reg := obs.NewRegistry()
		e := watch.NewEngine(watch.Config{Shards: shards, Metrics: reg})
		feed(e)
		e.Flush()
		st := e.Stats()
		if st.Processed != st.Ingested {
			t.Fatalf("shards=%d: processed %d of %d ingested events", shards, st.Processed, st.Ingested)
		}
		got, _ := json.Marshal(e.Alerts())
		if !bytes.Equal(ref, got) {
			t.Fatalf("shards=%d: alert set differs from uninstrumented engine", shards)
		}
		// Scrape before Close detaches the collector.
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		text := sb.String()
		inv := invariant{
			ingested:   seriesValue(t, text, "watch_ingested_total"),
			processed:  seriesValue(t, text, "watch_processed_total"),
			alerts:     seriesValue(t, text, "watch_alerts_total"),
			byDetector: map[string]float64{},
		}
		for det, n := range st.ByDetector {
			if n > 0 {
				inv.byDetector[det] = seriesValue(t, text,
					`watch_detector_alerts_total{detector="`+det+`"}`)
			}
		}
		if inv.ingested != inv.processed {
			t.Fatalf("shards=%d: ingested=%v processed=%v after flush", shards, inv.ingested, inv.processed)
		}
		if seriesValue(t, text, "watch_batch_seconds_count") == 0 {
			t.Fatalf("shards=%d: no batch latency observations", shards)
		}
		e.Close()
		if want == nil {
			c := inv
			want = &c
			continue
		}
		if inv.ingested != want.ingested || inv.alerts != want.alerts {
			t.Fatalf("shards=%d: invariant series drifted: %+v vs %+v", shards, inv, *want)
		}
		for det, v := range want.byDetector {
			if inv.byDetector[det] != v {
				t.Fatalf("shards=%d: detector %s count %v != %v", shards, det, inv.byDetector[det], v)
			}
		}
	}
}

// TestWatchMetricsScrapeDuringIngest hammers Prometheus renders and
// Stats against a live blocking feed; under -race this is the proof
// that scraping never torns state or deadlocks against shard workers.
func TestWatchMetricsScrapeDuringIngest(t *testing.T) {
	feed := churnFeed(t)
	reg := obs.NewRegistry()
	e := watch.NewEngine(watch.Config{Shards: 4, Metrics: reg})
	defer e.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				_ = e.Stats()
			}
		}()
	}
	feed(e)
	e.Flush()
	close(stop)
	wg.Wait()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if got := seriesValue(t, sb.String(), "watch_ingested_total"); got != float64(st.Ingested) {
		t.Fatalf("scrape ingested=%v, stats=%d", got, st.Ingested)
	}
}

// TestWatchMetricsDetachOnClose pins that Close unregisters the
// collector: a dead engine's series stop rendering.
func TestWatchMetricsDetachOnClose(t *testing.T) {
	reg := obs.NewRegistry()
	e := watch.NewEngine(watch.Config{Shards: 1, Metrics: reg})
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "watch_ingested_total") {
		t.Fatal("live engine missing from exposition")
	}
	e.Close()
	sb.Reset()
	reg.WritePrometheus(&sb)
	if strings.Contains(sb.String(), "watch_ingested_total") {
		t.Fatal("closed engine still rendering")
	}
}
