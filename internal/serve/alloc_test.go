package serve

import (
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/netx"
	"bgpworms/internal/obs"
	"bgpworms/internal/watch"
)

// countingWriter is a ResponseWriter that keeps the status and the body
// size and nothing else, so the measured allocations are the handler's.
type countingWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(code int)        { w.code = code }
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// alertsEngine returns a flushed engine that ingested exactly total
// events, the first firing of them blackhole-tagged announcements of
// distinct prefixes (each raises an alert), the rest re-announcements
// that raise nothing. Equal event counts mean equal batch counts, so
// two such engines sit at the same version and serve equal-length
// ETags.
func alertsEngine(t *testing.T, firing, total int) *watch.Engine {
	t.Helper()
	e := watch.NewEngine(watch.Config{Shards: 1})
	t.Cleanup(e.Close)
	for i := 0; i < total; i++ {
		ev := feed.Event{
			PeerAS:      100,
			Prefix:      netx.MustPrefix("10.1.2.0/24"),
			ASPath:      []uint32{100, 1000, 10000},
			Communities: bgp.NewCommunitySet(bgp.C(10000, 100)),
		}
		if i < firing {
			ev.Prefix = netip.PrefixFrom(netx.V4(20, byte(i>>8), byte(i), 0), 24)
			ev.Communities = bgp.NewCommunitySet(bgp.C(1000, 666))
		}
		e.Ingest(ev)
	}
	e.Flush()
	if got := e.Stats().Alerts; got < uint64(firing) {
		t.Fatalf("engine holds %d alerts, want at least %d", got, firing)
	}
	return e
}

// TestCachedAlertsHitIsConstant pins what the version cache is for, in a
// unit no machine changes: once /alerts has been rendered at a version,
// serving it again allocates the same whether the engine holds ten
// alerts or ten thousand — the hit is O(1), the render happened once.
func TestCachedAlertsHitIsConstant(t *testing.T) {
	req := httptest.NewRequest("GET", "/alerts", nil)
	measure := func(firing int) (allocs float64, bytes int) {
		h := New(Options{Watch: alertsEngine(t, firing, 10010), Registry: obs.NewRegistry()}).Handler()
		hit := func() {
			w := &countingWriter{h: http.Header{}, code: http.StatusOK}
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("GET /alerts: status %d", w.code)
			}
			bytes = w.n
		}
		hit() // the one render
		return testing.AllocsPerRun(200, hit), bytes
	}
	small, smallBytes := measure(10)
	large, largeBytes := measure(10000)
	t.Logf("cached /alerts: %v allocs for %d bytes, %v allocs for %d bytes", small, smallBytes, large, largeBytes)
	if largeBytes < 100*smallBytes {
		t.Fatalf("bodies are %d and %d bytes; the comparison is vacuous", smallBytes, largeBytes)
	}
	if small != large {
		t.Errorf("cached /alerts allocates %v per hit at 10 alerts and %v at 10,000: the hit is not O(1)", small, large)
	}
}
