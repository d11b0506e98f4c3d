package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bgpworms/internal/durable"
	"bgpworms/internal/feed"
	"bgpworms/internal/obs"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// metricValue scrapes one counter/gauge from the frontend's /metrics
// exposition.
func metricValue(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	body := mustGet(t, h, "/metrics")
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.e+-]+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// TestFrontendReplicaFailover is the replication acceptance test: with
// two replicas serving range 0, killing one mid-hammer must keep the
// merged /alerts byte-identical and /healthz ok (with a failover
// counted); killing the whole set must degrade to 502 + 503.
func TestFrontendReplicaFailover(t *testing.T) {
	events := churnEvents(t)
	// Range 0: two replicas — independent processes over the same feed
	// slice, which the deterministic engine makes byte-equivalent.
	repA := httptest.NewServer(startProc(t, events, 0, 2).srv.Handler())
	repB := httptest.NewServer(startProc(t, events, 0, 2).srv.Handler())
	other := httptest.NewServer(startProc(t, events, 1, 2).srv.Handler())
	defer repB.Close()
	defer other.Close()

	fe := NewFrontend([]string{repA.URL + "|" + repB.URL, other.URL}, obs.NewRegistry())
	h := fe.Handler()

	want := mustGet(t, h, "/alerts")
	const rounds = 6
	for i := 0; i < rounds; i++ {
		if i == rounds/2 {
			// A health poll must not move the sticky replica: it used to
			// leave the last replica probed preferred, and the kill below
			// then failed over nothing (watchsmoke stage 4's flake).
			get(t, h, "/healthz", nil)
			repA.Close() // kill one replica mid-hammer
		}
		if got := mustGet(t, h, "/alerts"); !bytes.Equal(got, want) {
			t.Fatalf("round %d: merged /alerts changed during replica failover", i)
		}
	}
	if v := metricValue(t, h, "frontend_failover_total"); v == 0 {
		t.Fatal("no failovers counted after killing a replica")
	}
	code, _, body := get(t, h, "/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"shards_healthy": 2`) {
		t.Fatalf("/healthz with one dead replica: %d\n%s", code, body)
	}

	// Whole set down: no silent partial merge.
	repB.Close()
	if code, _, _ := get(t, h, "/alerts", nil); code != http.StatusBadGateway {
		t.Fatalf("/alerts with a whole replica set down: %d, want 502", code)
	}
	code, _, body = get(t, h, "/healthz", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), `"status": "degraded"`) {
		t.Fatalf("/healthz with a whole replica set down: %d\n%s", code, body)
	}
}

// TestFrontendPrefixStatuses pins the /prefix proxy contract: upstream
// 200, 304, and 404 pass through to the client; 5xx triggers replica
// failover and only becomes 502 when every replica errors.
func TestFrontendPrefixStatuses(t *testing.T) {
	events := churnEvents(t)
	p := startProc(t, events, 0, 1)
	shard := httptest.NewServer(p.srv.Handler())
	defer shard.Close()
	fe := NewFrontend([]string{shard.URL}, obs.NewRegistry())
	h := fe.Handler()

	// A tracked prefix for the 200/304 legs.
	alerts := p.eng.Alerts()
	if len(alerts) == 0 {
		t.Fatal("no alerts — no known-tracked prefix to probe")
	}
	tracked := "/prefix/" + alerts[0].Prefix.String()
	code, hdr, body := get(t, h, tracked, nil)
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("GET %s: %d", tracked, code)
	}
	etag := hdr.Get("ETag")
	if !strings.HasPrefix(etag, `"v`) {
		t.Fatalf("%s: no version ETag through the frontend, got %q", tracked, etag)
	}
	code, _, body = get(t, h, tracked, map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("%s revalidation: %d with %d body bytes, want empty 304", tracked, code, len(body))
	}

	// An untracked (but valid) prefix must surface the shard's 404, not
	// a 502.
	untracked := "/prefix/192.0.2.0/30"
	if code, _, _ := get(t, p.srv.Handler(), untracked, nil); code != http.StatusNotFound {
		t.Fatalf("shard should 404 %s (feed unexpectedly tracks it)", untracked)
	}
	if code, _, body := get(t, h, untracked, nil); code != http.StatusNotFound {
		t.Fatalf("frontend %s: %d (%s), want the upstream 404", untracked, code, body)
	}

	// A malformed prefix stays a client error.
	if code, _, _ := get(t, h, "/prefix/not-a-prefix", nil); code != http.StatusBadRequest {
		t.Fatal("malformed prefix must 400")
	}

	// 5xx replica: with a healthy sibling the request fails over...
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "synthetic shard failure", http.StatusInternalServerError)
	}))
	defer boom.Close()
	reg2 := obs.NewRegistry()
	fe2 := NewFrontend([]string{boom.URL + "|" + shard.URL}, reg2)
	h2 := fe2.Handler()
	code, _, body = get(t, h2, tracked, nil)
	if code != http.StatusOK {
		t.Fatalf("%s with a 500ing preferred replica: %d (%s), want failover to 200", tracked, code, body)
	}
	if v := metricValue(t, h2, "frontend_failover_total"); v == 0 {
		t.Fatal("5xx failover not counted")
	}

	// ...and with no replica left, the set's failure is a 502.
	fe3 := NewFrontend([]string{boom.URL}, obs.NewRegistry())
	code, _, _ = get(t, fe3.Handler(), tracked, nil)
	if code != http.StatusBadGateway {
		t.Fatalf("%s with every replica 500ing: %d, want 502", tracked, code)
	}
}

// durableShard is one explicit-directory shard process for the reshard
// round trip: unlike startProc it exposes its durability directory and
// can be shut down gracefully mid-test.
type durableShard struct {
	eng   *watch.Engine
	sem   *semantics.Engine
	store *durable.Store
	srv   *Server
	ts    *httptest.Server
}

func startDurableShard(t *testing.T, dir string, idx, count int, events []feed.Event) *durableShard {
	t.Helper()
	reg := obs.NewRegistry()
	sem := semantics.NewEngine(semantics.Config{})
	eng := watch.NewEngine(watch.Config{Shards: 4, Semantics: sem})
	opts := durable.Options{Dir: dir, FsyncInterval: -1}
	if count > 1 {
		opts.Owner = NewRangeMap(count).OwnerFunc(idx)
	}
	store, _, err := durable.Open(eng, sem, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := store.Sink()
	for _, ev := range events {
		sink(ev)
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	srv := New(Options{Watch: eng, Semantics: sem, Holder: &semantics.Holder{}, Registry: reg,
		Store: store, ShardIndex: idx, ShardCount: count})
	s := &durableShard{eng: eng, sem: sem, store: store, srv: srv}
	s.ts = httptest.NewServer(srv.Handler())
	return s
}

// stop shuts the shard down gracefully: the store's Close writes the
// final checkpoint walreshard relies on.
func (s *durableShard) stop(t *testing.T) {
	t.Helper()
	s.ts.Close()
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	s.eng.Close()
	s.sem.Close()
}

// TestFrontendReshardByteIdentity is the end-to-end acceptance path:
// run a 2-shard durable fleet, capture the merged /alerts, stop the
// fleet, reshard its directories 2→3 with the exact ownership function
// cmd/walreshard wires (RangeMap over the destination count), boot the
// new fleet feed-less, and require the byte-identical merged surface.
func TestFrontendReshardByteIdentity(t *testing.T) {
	events := churnEvents(t)

	srcDirs := []string{t.TempDir(), t.TempDir()}
	var pre []byte
	{
		var urls []string
		shards := make([]*durableShard, len(srcDirs))
		for i, dir := range srcDirs {
			shards[i] = startDurableShard(t, dir, i, len(srcDirs), events)
			urls = append(urls, shards[i].ts.URL)
		}
		fe := NewFrontend(urls, obs.NewRegistry())
		pre = mustGet(t, fe.Handler(), "/alerts")
		for _, s := range shards {
			s.stop(t)
		}
	}
	if !strings.Contains(string(pre), `"detector"`) {
		t.Fatal("pre-reshard /alerts holds no alerts — identity would be vacuous")
	}

	dstDirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	rm := NewRangeMap(len(dstDirs))
	rep, err := durable.Reshard(durable.ReshardOptions{SrcDirs: srcDirs, DstDirs: dstDirs, Owner: rm.Owner})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointSeq == 0 {
		t.Fatal("gracefully stopped fleet produced no checkpoint to split")
	}

	var urls []string
	for i, dir := range dstDirs {
		s := startDurableShard(t, dir, i, len(dstDirs), nil) // no feed: recovery only
		defer s.stop(t)
		urls = append(urls, s.ts.URL)
	}
	fe := NewFrontend(urls, obs.NewRegistry())
	h := fe.Handler()
	post := mustGet(t, h, "/alerts")
	if !bytes.Equal(pre, post) {
		t.Fatalf("resharded fleet /alerts diverged: pre %d bytes, post %d bytes", len(pre), len(post))
	}
	code, _, body := get(t, h, "/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(body), fmt.Sprintf(`"shards_healthy": %d`, len(dstDirs))) {
		t.Fatalf("resharded fleet /healthz: %d\n%s", code, body)
	}
}
