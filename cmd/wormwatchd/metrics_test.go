package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"bgpworms/internal/feed"
	"bgpworms/internal/obs"
	"bgpworms/internal/semantics"
	"bgpworms/internal/serve"
	"bgpworms/internal/watch"
)

// metricsPage is one parsed /metrics body.
type metricsPage struct {
	types  map[string]string  // family -> TYPE keyword
	values map[string]float64 // series (labels included) -> value
	dups   []string           // series rendered more than once
}

func parseMetrics(t *testing.T, body string) metricsPage {
	t.Helper()
	p := metricsPage{types: map[string]string{}, values: map[string]float64{}}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam, typ, _ := strings.Cut(rest, " ")
			if _, seen := p.types[fam]; seen {
				p.dups = append(p.dups, "# TYPE "+fam)
			}
			p.types[fam] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("bad series line %q", line)
		}
		if _, seen := p.values[line[:i]]; seen {
			p.dups = append(p.dups, line[:i])
		}
		p.values[line[:i]] = v
	}
	return p
}

// requireTypes fails unless every family is on the page with its TYPE.
func (p metricsPage) requireTypes(t *testing.T, page string, want map[string]string) {
	t.Helper()
	for fam, typ := range want {
		if got := p.types[fam]; got != typ {
			t.Errorf("%s /metrics: %s has TYPE %q, want %q", page, fam, got, typ)
		}
	}
}

// TestMetricsPagesKeepTheirReaders pins the series the external readers
// of /metrics parse — bench/serving.go's scrapeSUT and ci/watchsmoke.sh
// — by name and TYPE, on a -wal daemon with the dictionary on and on a
// frontend over it, both wired as main wires them: on obs.Default. (The
// bench also reads watch_dropped_total, which nothing has emitted since
// ingest became lossless; a missing series reads 0 there.)
func TestMetricsPagesKeepTheirReaders(t *testing.T) {
	d := startDaemon(t, config{scenario: "rtbh", dict: true, engineShards: 4,
		walDir: t.TempDir(), fsync: 5 * time.Millisecond, reg: obs.Default})
	base := d.url(t)
	defer d.stop(t)
	stats := waitStable(t, base+"/stats", func(body string) bool {
		var st watch.Stats
		return json.Unmarshal([]byte(body), &st) == nil && st.Ingested > 0 && st.Processed == st.Ingested
	})
	var st watch.Stats
	if err := json.Unmarshal([]byte(stats), &st); err != nil {
		t.Fatal(err)
	}
	_, body := httpGet(t, base+"/metrics")
	shard := parseMetrics(t, body)
	shard.requireTypes(t, "shard", map[string]string{
		// scrapeSUT
		"wal_fsync_seconds":       "histogram",
		"durable_snapshots_total": "counter",
		"watch_pending_events":    "gauge",
		"http_requests_total":     "counter",
		// watchsmoke.sh
		"watch_ingested_total":     "counter",
		"watch_alerts_total":       "counter",
		"semantics_ingested_total": "counter",
		"wal_records_total":        "counter",
		"wal_bytes":                "gauge",
		"wal_last_seq":             "gauge",
		"durable_seq":              "gauge",
		"snapshot_seq":             "gauge",
	})
	for _, s := range []string{"wal_fsync_seconds_count", "wal_fsync_seconds_sum"} {
		if _, ok := shard.values[s]; !ok {
			t.Errorf("shard /metrics lacks %s", s)
		}
	}
	if got := shard.values["watch_ingested_total"]; got != float64(st.Ingested) {
		t.Errorf("watch_ingested_total %v, /stats ingested %d", got, st.Ingested)
	}
	if got := shard.values["durable_seq"]; got != float64(st.Ingested) {
		t.Errorf("durable_seq %v, /stats ingested %d", got, st.Ingested)
	}

	f := startDaemon(t, config{frontend: base, reg: obs.Default})
	front := f.url(t)
	defer f.stop(t)
	if code, body := httpGet(t, front+"/alerts"); code != http.StatusOK {
		t.Fatalf("frontend /alerts: %d %s", code, body)
	}
	_, body = httpGet(t, front+"/metrics")
	parseMetrics(t, body).requireTypes(t, "frontend", map[string]string{
		"frontend_failover_total":        "counter",
		"frontend_scatter_seconds":       "histogram",
		"frontend_upstream_errors_total": "counter",
		"http_requests_total":            "counter",
	})
}

// feedMRT streams MRT bytes into a sink.
func feedMRT(t *testing.T, raw []byte, sink func(feed.Event)) {
	t.Helper()
	if _, err := feed.StreamMRT(bytes.NewReader(raw), "mrt:feed", sink); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchStatsAcrossEngineShards: after Flush, the counters a
// server renders from its engine's Collect are the engine's Stats, and
// they — like the alert set — do not depend on the engine shard count.
// Queue depths and batch timing measure scheduling and are not compared.
func TestMetricsMatchStatsAcrossEngineShards(t *testing.T) {
	part1, part2 := mrtParts(t)
	var want map[string]float64
	for _, shards := range []int{1, 4, 16} {
		sem := semantics.NewEngine(semantics.Config{})
		eng := watch.NewEngine(watch.Config{Shards: shards, Semantics: sem})
		h := serve.New(serve.Options{Watch: eng, Semantics: sem, Registry: obs.NewRegistry()}).Handler()
		feedMRT(t, part1, eng.Ingest)
		feedMRT(t, part2, eng.Ingest)
		eng.Flush()
		st := eng.Stats()
		_, body := get(t, h, "/metrics")
		eng.Close()
		page := parseMetrics(t, body)
		got := map[string]float64{
			"watch_ingested_total":  page.values["watch_ingested_total"],
			"watch_processed_total": page.values["watch_processed_total"],
			"watch_alerts_total":    page.values["watch_alerts_total"],
		}
		if got["watch_ingested_total"] != float64(st.Ingested) || got["watch_processed_total"] != float64(st.Processed) ||
			got["watch_alerts_total"] != float64(st.Alerts) || st.Ingested == 0 || st.Alerts == 0 {
			t.Fatalf("shards=%d: page %v, Stats %+v", shards, got, st)
		}
		for det, n := range st.ByDetector {
			series := `watch_detector_alerts_total{detector="` + det + `"}`
			if got[series] = page.values[series]; got[series] != float64(n) {
				t.Fatalf("shards=%d: %s = %v, Stats says %d", shards, series, got[series], n)
			}
		}
		if want == nil {
			want = got
		} else if !maps.Equal(got, want) {
			t.Fatalf("shards=%d: series %v, at 1 shard %v", shards, got, want)
		}
	}
}

// TestServersSharingARegistryRenderEachSeriesOnce: two servers, two
// engine sets, one registry. Each page holds its own engines' series
// once, and nothing of the other's.
func TestServersSharingARegistryRenderEachSeriesOnce(t *testing.T) {
	reg := obs.NewRegistry()
	for i, n := range []int{3, 5} {
		sem := semantics.NewEngine(semantics.Config{})
		eng := watch.NewEngine(watch.Config{Shards: 2, Semantics: sem})
		defer eng.Close()
		h := serve.New(serve.Options{Watch: eng, Semantics: sem, Registry: reg}).Handler()
		for j := 0; j < n; j++ {
			eng.Ingest(testEvent(j))
		}
		eng.Flush()
		_, body := get(t, h, "/metrics")
		p := parseMetrics(t, body)
		if len(p.dups) > 0 {
			t.Fatalf("server %d renders %v more than once:\n%s", i, p.dups, body)
		}
		if p.values["watch_ingested_total"] != float64(n) || p.values["semantics_ingested_total"] != float64(n) {
			t.Fatalf("server %d: ingested %v/%v, fed %d", i, p.values["watch_ingested_total"], p.values["semantics_ingested_total"], n)
		}
	}
}
