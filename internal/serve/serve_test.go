package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"bgpworms/internal/core"
	"bgpworms/internal/durable"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// churnEvents flattens the deterministic churn feed into an event list
// (the same harness the watch state and durable tests use), so shard
// equivalence tests feed every process the identical stream.
func churnEvents(t testing.TB) []feed.Event {
	t.Helper()
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	events := core.FromCollectors(w.Collectors).Updates
	if len(events) < 300 {
		t.Fatalf("churn feed too small to shard meaningfully: %d events", len(events))
	}
	return spreadPrefixes(events)
}

// spreadPrefixes deterministically remaps each v4 prefix's first octet
// to a hash of its address: the gen worlds cluster their prefixes into
// one corner of the address space, which would put every event on one
// RangeMap slice and make shard-equivalence tests vacuous. The remap is
// a pure function of the original prefix, so identical prefixes stay
// identical and every process sees the same transformed feed.
func spreadPrefixes(events []feed.Event) []feed.Event {
	out := make([]feed.Event, len(events))
	for i, ev := range events {
		if ev.Prefix.IsValid() && ev.Prefix.Addr().Is4() && ev.Prefix.Bits() >= 8 {
			a := ev.Prefix.Addr().As4()
			h := fnv.New32a()
			h.Write(a[:])
			a[0] = byte(h.Sum32())
			ev.Prefix = netip.PrefixFrom(netip.AddrFrom4(a), ev.Prefix.Bits())
		}
		out[i] = ev
	}
	return out
}

// proc is one fully fed shard (or standalone) serving process: engines,
// durable store, and the Server handler over them.
type proc struct {
	eng   *watch.Engine
	sem   *semantics.Engine
	store *durable.Store
	srv   *Server
}

// startProc builds a daemon-shaped process (durable store included, so
// sequence assignment matches production), feeds it every event, and
// returns it flushed. owner nil = standalone reference.
func startProc(t testing.TB, events []feed.Event, idx, count int) *proc {
	t.Helper()
	reg := obs.NewRegistry()
	sem := semantics.NewEngine(semantics.Config{})
	holder := &semantics.Holder{}
	eng := watch.NewEngine(watch.Config{Shards: 4, Semantics: sem})
	opts := durable.Options{Dir: t.TempDir(), FsyncInterval: -1}
	if count > 1 {
		opts.Owner = NewRangeMap(count).OwnerFunc(idx)
	}
	store, _, err := durable.Open(eng, sem, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close(); eng.Close(); sem.Close() })
	sink := store.Sink()
	for _, ev := range events {
		sink(ev)
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	return &proc{eng: eng, sem: sem, store: store, srv: New(Options{
		Watch: eng, Semantics: sem, Holder: holder, Registry: reg,
		Store: store, ShardIndex: idx, ShardCount: count,
	})}
}

func get(t testing.TB, h http.Handler, path string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Result().Header, rec.Body.Bytes()
}

func mustGet(t testing.TB, h http.Handler, path string) []byte {
	t.Helper()
	code, _, body := get(t, h, path, nil)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, body)
	}
	return body
}

// statusCounter counts response codes per path — the proof that the
// frontend's second gather really revalidated (304) instead of
// refetching (200).
type statusCounter struct {
	h     http.Handler
	mu    sync.Mutex
	codes map[string]map[int]int
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) { w.code = code; w.ResponseWriter.WriteHeader(code) }

func (c *statusCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	c.h.ServeHTTP(sw, r)
	c.mu.Lock()
	if c.codes == nil {
		c.codes = map[string]map[int]int{}
	}
	if c.codes[r.URL.Path] == nil {
		c.codes[r.URL.Path] = map[int]int{}
	}
	c.codes[r.URL.Path][sw.code]++
	c.mu.Unlock()
}

func (c *statusCounter) count(path string, code int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.codes[path][code]
}

// TestServerDurableEndpoint pins the /durable shape with and without a
// store attached.
func TestServerDurableEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	eng := watch.NewEngine(watch.Config{Shards: 1})
	defer eng.Close()
	bare := New(Options{Watch: eng, Registry: reg})
	var p durablePayload
	if err := json.Unmarshal(mustGet(t, bare.Handler(), "/durable"), &p); err != nil {
		t.Fatal(err)
	}
	if p.Enabled || p.Status != nil || p.Shards != 1 {
		t.Fatalf("bare /durable: %+v", p)
	}

	events := churnEvents(t)
	ref := startProc(t, events[:50], 0, 1)
	if err := json.Unmarshal(mustGet(t, ref.srv.Handler(), "/durable"), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Enabled || p.Status == nil || p.Status.Seq != 50 {
		t.Fatalf("durable /durable: %+v (status %+v)", p, p.Status)
	}
}

// TestServerETagRevalidation pins the shard-side revalidation contract:
// versioned endpoints serve an ETag, honor If-None-Match with an empty
// 304, and the ETag rides headers only — bodies stay byte-identical
// across revalidating and plain requests.
func TestServerETagRevalidation(t *testing.T) {
	events := churnEvents(t)
	p := startProc(t, events, 0, 1)
	h := p.srv.Handler()
	for _, path := range []string{"/alerts", "/stats", "/dict/export"} {
		code, hdr, body := get(t, h, path, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, code)
		}
		etag := hdr.Get("ETag")
		if !strings.HasPrefix(etag, `"v`) {
			t.Fatalf("%s: no version ETag, got %q", path, etag)
		}
		code2, _, body2 := get(t, h, path, map[string]string{"If-None-Match": etag})
		if code2 != http.StatusNotModified || len(body2) != 0 {
			t.Fatalf("%s: revalidation got %d with %d body bytes", path, code2, len(body2))
		}
		code3, _, body3 := get(t, h, path, map[string]string{"If-None-Match": `"v999999"`})
		if code3 != http.StatusOK || !bytes.Equal(body3, body) {
			t.Fatalf("%s: stale-ETag refetch diverged (code %d)", path, code3)
		}
	}
}

// startFleet starts n shard processes, each fed every event, behind a
// frontend, and returns the frontend's handler and the shards.
func startFleet(t *testing.T, events []feed.Event, n int) (http.Handler, []*proc) {
	t.Helper()
	var urls []string
	shardProcs := make([]*proc, n)
	for i := 0; i < n; i++ {
		shardProcs[i] = startProc(t, events, i, n)
		ts := httptest.NewServer(shardProcs[i].srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	return NewFrontend(urls, obs.NewRegistry()).Handler(), shardProcs
}

// sameAlerts fails t unless the frontend serves /alerts, and the view of
// every detector (plus one that does not exist), byte-identical to ref.
func sameAlerts(t *testing.T, ref, fe http.Handler) {
	t.Helper()
	for _, det := range append(watch.DetectorNames(), "no-such-detector") {
		path := "/alerts?detector=" + det
		if got, want := mustGet(t, fe, path), mustGet(t, ref, path); !bytes.Equal(got, want) {
			t.Fatalf("sharded %s diverged:\nref %d bytes, frontend %d bytes", path, len(want), len(got))
		}
	}
	if got, want := mustGet(t, fe, "/alerts"), mustGet(t, ref, "/alerts"); !bytes.Equal(got, want) {
		t.Fatalf("sharded /alerts diverged from single-process:\nref %d bytes, frontend %d bytes", len(want), len(got))
	}
}

// TestFrontendByteIdentity is the sharding acceptance test: three shard
// processes (prefix-range split, durable stores, full feed each) behind
// the scatter-gather frontend must serve /alerts, full and per detector,
// byte-identical to one standalone process fed the same stream — plus
// exact /dict and aggregate /stats invariants. The frontend copies the
// shards' alert elements without decoding them, so the cases also cover
// what that copy must carry through: every alert's source holds <, & and
// >, which json.Marshal escapes, route-leak's message an em dash; a
// shard with no alerts ("alerts": null) and a fleet with none at all;
// and a shard body that is not an /alerts payload, which fails the
// merge with 502.
func TestFrontendByteIdentity(t *testing.T) {
	events := churnEvents(t)
	// The tiny churn feed shifts no origin: one prefix announced from two
	// origins raises the route-leak alert.
	leak := events[len(events)-1]
	leak.Prefix, leak.Withdraw = netip.MustParsePrefix("203.0.113.0/24"), false
	leak.ASPath = []uint32{leak.PeerAS, 300}
	events = append(events, leak)
	leak.ASPath = []uint32{leak.PeerAS, 999}
	events = append(events, leak)
	for i := range events {
		events[i].Source += " <&>"
	}
	ref := startProc(t, events, 0, 1)
	refH := ref.srv.Handler()

	const n = 3
	feH, shardProcs := startFleet(t, events, n)

	// Sanity: the split is real — every shard saw the whole feed but
	// ingested only its slice, and the slices sum to the whole.
	var ingested uint64
	for i, sp := range shardProcs {
		st := sp.eng.Stats()
		if st.Ingested == 0 || st.Ingested == uint64(len(events)) {
			t.Fatalf("shard %d ingested %d of %d — not a real split", i, st.Ingested, len(events))
		}
		ingested += st.Ingested
	}
	if ingested != uint64(len(events)) {
		t.Fatalf("shard ingest sums to %d, want %d", ingested, len(events))
	}

	// /alerts: byte-identical, full and filtered.
	sameAlerts(t, refH, feH)
	refAlerts := mustGet(t, refH, "/alerts")
	for _, want := range []string{`\u003c\u0026\u003e`, "\u2014 route-leak"} {
		if !bytes.Contains(refAlerts, []byte(want)) {
			t.Fatalf("reference /alerts never contains %q; the escaping case is vacuous", want)
		}
	}
	var ap struct {
		Count  int `json:"count"`
		Alerts []struct {
			Prefix netip.Prefix `json:"prefix"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal(refAlerts, &ap); err != nil {
		t.Fatal(err)
	}
	if ap.Count == 0 {
		t.Fatal("no alerts in reference run — equality is vacuous")
	}

	// /prefix/{p}: routed to the owning shard, byte-identical.
	for _, a := range ap.Alerts[:min(5, len(ap.Alerts))] {
		path := "/prefix/" + a.Prefix.String()
		if !bytes.Equal(mustGet(t, refH, path), mustGet(t, feH, path)) {
			t.Fatalf("sharded %s diverged", path)
		}
	}

	// /dict: the merged dictionary index is byte-identical (entry sets
	// are exact under prefix sharding; only Peers is an upper bound).
	if !bytes.Equal(mustGet(t, refH, "/dict"), mustGet(t, feH, "/dict")) {
		t.Fatalf("sharded /dict diverged")
	}

	// /dict/{asn}: identical modulo the documented Peers upper bound.
	var refExport dictExportPayload
	if err := json.Unmarshal(mustGet(t, refH, "/dict/export"), &refExport); err != nil {
		t.Fatal(err)
	}
	if refExport.Count == 0 {
		t.Fatal("reference dictionary empty — equality is vacuous")
	}
	asn := refExport.Entries[0].Community.ASN()
	path := fmt.Sprintf("/dict/%d", asn)
	var refAS, feAS dictASPayload
	if err := json.Unmarshal(mustGet(t, refH, path), &refAS); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mustGet(t, feH, path), &feAS); err != nil {
		t.Fatal(err)
	}
	if got, want := canonDict(t, &feAS), canonDict(t, &refAS); got != want {
		t.Fatalf("sharded %s diverged:\nref: %s\nfrontend: %s", path, want, got)
	}

	// /dict/stats: merged shape matches the reference dictionary.
	var ds frontendDictStats
	if err := json.Unmarshal(mustGet(t, feH, "/dict/stats"), &ds); err != nil {
		t.Fatal(err)
	}
	if ds.Observations != refExport.Observations || ds.Communities != refExport.Count {
		t.Fatalf("frontend /dict/stats %+v vs reference export obs=%d count=%d",
			ds, refExport.Observations, refExport.Count)
	}

	// /stats: totals are additive over the shards.
	var fs frontendStats
	if err := json.Unmarshal(mustGet(t, feH, "/stats"), &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.Shards) != n || fs.Total.Ingested != uint64(len(events)) || fs.Total.Alerts != uint64(ap.Count) {
		t.Fatalf("frontend /stats totals: %d shards, ingested %d (want %d), alerts %d (want %d)",
			len(fs.Shards), fs.Total.Ingested, len(events), fs.Total.Alerts, ap.Count)
	}

	// /healthz: all shards up.
	code, _, health := get(t, feH, "/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(health), `"shards_healthy": 3`) {
		t.Fatalf("frontend /healthz: %d\n%s", code, health)
	}

	t.Run("one shard without alerts", func(t *testing.T) {
		rm := NewRangeMap(2)
		var own []feed.Event
		for _, ev := range events {
			if rm.Owner(ev.Prefix) == 0 {
				own = append(own, ev)
			}
		}
		feH, shards := startFleet(t, own, 2)
		if shards[0].eng.Stats().Alerts == 0 || shards[1].eng.Stats().Ingested != 0 {
			t.Fatalf("shard 0 holds %d alerts, shard 1 ingested %d events; want some and none",
				shards[0].eng.Stats().Alerts, shards[1].eng.Stats().Ingested)
		}
		sameAlerts(t, startProc(t, own, 0, 1).srv.Handler(), feH)
	})
	t.Run("no alerts anywhere", func(t *testing.T) {
		feH, _ := startFleet(t, nil, 2)
		sameAlerts(t, startProc(t, nil, 0, 1).srv.Handler(), feH)
	})
	t.Run("malformed shard body", func(t *testing.T) {
		good := httptest.NewServer(shardProcs[0].srv.Handler())
		t.Cleanup(good.Close)
		for _, body := range []string{
			"not json",
			`{"count": 1, "alerts": [{"seq": 1}`,
			`{"count": 0}`,
			`{"count": 1, "alerts": {"seq": 1}}`,
			`{"count": 1, "alerts": [1]}`,
			`{"count": 1, "alerts": [{"detector": "route-leak"}]}`,
			`{"count": 1, "alerts": [{"seq": -1}]}`,
		} {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte(body))
			}))
			fe := NewFrontend([]string{good.URL, bad.URL}, obs.NewRegistry()).Handler()
			for _, path := range []string{"/alerts", "/alerts?detector=route-leak"} {
				if code, _, _ := get(t, fe, path, nil); code != http.StatusBadGateway {
					t.Errorf("%s with a shard serving %q: status %d, want 502", path, body, code)
				}
			}
			bad.Close()
		}
	})
}

// canonDict renders a dictionary payload with the Peers upper bound
// neutralized — the one field prefix sharding cannot merge exactly.
func canonDict(t *testing.T, p *dictASPayload) string {
	t.Helper()
	for _, e := range p.Entries {
		e.Peers = 0
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFrontendRevalidation proves the gather's second pass rides 304s:
// the shard serves the body once, then only revalidations.
func TestFrontendRevalidation(t *testing.T) {
	events := churnEvents(t)
	p := startProc(t, events, 0, 1)
	counter := &statusCounter{h: p.srv.Handler()}
	ts := httptest.NewServer(counter)
	defer ts.Close()
	fe := NewFrontend([]string{ts.URL}, obs.NewRegistry())
	h := fe.Handler()

	first := mustGet(t, h, "/alerts")
	second := mustGet(t, h, "/alerts")
	if !bytes.Equal(first, second) {
		t.Fatal("cached merge diverged from first render")
	}
	if got := counter.count("/alerts", http.StatusOK); got != 1 {
		t.Fatalf("shard served %d full /alerts bodies, want 1", got)
	}
	if got := counter.count("/alerts", http.StatusNotModified); got != 1 {
		t.Fatalf("shard served %d /alerts revalidations, want 1", got)
	}
}

// TestFrontendShardFailure pins the no-partial-merge rule: with one
// shard down, merged endpoints refuse (502) rather than silently serve
// a view missing a slice of the prefix space, and /healthz degrades.
func TestFrontendShardFailure(t *testing.T) {
	events := churnEvents(t)
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < 2; i++ {
		sp := startProc(t, events, i, 2)
		ts := httptest.NewServer(sp.srv.Handler())
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	defer servers[0].Close()
	fe := NewFrontend(urls, obs.NewRegistry())
	h := fe.Handler()
	mustGet(t, h, "/alerts")

	servers[1].Close()
	if code, _, _ := get(t, h, "/alerts", nil); code != http.StatusBadGateway {
		t.Fatalf("/alerts with a dead shard: %d, want 502", code)
	}
	code, _, body := get(t, h, "/healthz", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), `"status": "degraded"`) {
		t.Fatalf("/healthz with a dead shard: %d\n%s", code, body)
	}
}
