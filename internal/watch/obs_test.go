package watch_test

import (
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

// TestWatchMetricsScrapeDuringIngest hammers Prometheus renders of the
// engine's Collect and Stats against a live blocking feed; under -race
// this is the proof that scraping never tears state or deadlocks
// against shard workers.
func TestWatchMetricsScrapeDuringIngest(t *testing.T) {
	feed := churnFeed(t)
	reg := obs.NewRegistry()
	e := watch.NewEngine(watch.Config{Shards: 4})
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
				if err := reg.WritePrometheus(&sb, e.Collect); err != nil {
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
	if err := reg.WritePrometheus(&sb, e.Collect); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if got := seriesValue(t, sb.String(), "watch_ingested_total"); got != float64(st.Ingested) {
		t.Fatalf("scrape ingested=%v, stats=%d", got, st.Ingested)
	}
}
