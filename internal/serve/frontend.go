package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"time"

	"bgpworms/internal/obs"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// Frontend is the thin scatter-gather tier of the sharded daemon: it
// owns no engine, only the shard URL list and the same RangeMap the
// shards run, and merges their snapshots.
//
//   - /alerts        scatter to every shard, merge by global sequence.
//     Because shards assign identical global sequence numbers and own
//     disjoint prefix ranges, the merged body is byte-identical to a
//     single-process daemon's (TestFrontendByteIdentity).
//   - /prefix/{p}    route to the owning shard (pure function of the
//     prefix), proxy its response verbatim.
//   - /dict, /dict/stats, /dict/{asn}  scatter /dict/export, merge the
//     partial dictionaries into one snapshot with semantics.Merge — the
//     engine's own drain, with each entry's peer list unioned — and
//     render it with the shard's own payload builders, byte-identical
//     to a single process's.
//   - /stats         scatter, serve per-shard snapshots plus sums.
//
// Revalidation rides ETags: every gather remembers each range's last
// ETag and body, sends If-None-Match, and an unchanged shard answers 304
// with no payload — so a quiet fleet serves cached merges at the cost
// of N tiny round trips. Shard ETags are derived from the bytes they
// validate, so one slot per range serves all of its replicas: a
// byte-identical replica revalidates the cached body after a failover,
// and a restarted or lagging one sends its own bytes.
type Frontend struct {
	sets   []*replicaSet
	rm     *RangeMap
	reg    *obs.Registry
	client *http.Client
	start  time.Time

	alerts gatherCache
	stats  gatherCache
	dict   gatherCache

	scatterHist *obs.Histogram
	upstreamErr *obs.Counter
	failovers   *obs.Counter
}

// replicaSet is one prefix range's replicas: every URL serves the same
// RangeMap slice (daemons fed the same feed with the same -shard-index,
// or booted from copies of the same durability directory). The
// preferred index is sticky — it follows the last replica that answered
// — so a healthy fleet pays no failover probes.
type replicaSet struct {
	urls []string

	mu        sync.Mutex
	preferred int
}

// order returns the replica indices in attempt order: the sticky
// preferred replica first, then the rest ascending.
func (rs *replicaSet) order() []int {
	rs.mu.Lock()
	p := rs.preferred
	rs.mu.Unlock()
	out := make([]int, 0, len(rs.urls))
	out = append(out, p)
	for i := range rs.urls {
		if i != p {
			out = append(out, i)
		}
	}
	return out
}

// prefer makes replica i, which just answered, the sticky first choice.
func (rs *replicaSet) prefer(i int) {
	rs.mu.Lock()
	rs.preferred = i
	rs.mu.Unlock()
}

// NewFrontend builds the scatter-gather tier over the given shard base
// URLs (e.g. "http://127.0.0.1:8581"). The shard order must match the
// shard indices the daemons were started with (-shard-index i serves
// RangeMap slice i and must be the i-th URL). An element may carry
// several replica URLs separated by "|" ("http://a:8581|http://b:8581");
// the frontend fails over between them and only reports a range down
// when every replica is.
func NewFrontend(shardURLs []string, reg *obs.Registry) *Frontend {
	sets := make([]*replicaSet, len(shardURLs))
	for i, u := range shardURLs {
		var urls []string
		for _, r := range strings.Split(u, "|") {
			if r = strings.TrimRight(strings.TrimSpace(r), "/"); r != "" {
				urls = append(urls, r)
			}
		}
		if len(urls) == 0 {
			urls = []string{""}
		}
		sets[i] = &replicaSet{urls: urls}
	}
	f := &Frontend{
		sets:   sets,
		rm:     NewRangeMap(len(sets)),
		reg:    reg,
		client: &http.Client{Timeout: 30 * time.Second},
		start:  time.Now(),
	}
	f.alerts.init(sets)
	f.stats.init(sets)
	f.dict.init(sets)
	f.scatterHist = reg.Histogram("frontend_scatter_seconds",
		"full scatter-gather round trip latency", obs.DurationBuckets)
	f.upstreamErr = reg.Counter("frontend_upstream_errors_total",
		"failed shard sub-requests")
	f.failovers = reg.Counter("frontend_failover_total",
		"replica fetch failures that moved the request to another replica")
	return f
}

// Handler returns the frontend's HTTP surface, instrumented like the
// shard server's.
func (f *Frontend) Handler() http.Handler {
	m := http.NewServeMux()
	m.HandleFunc("/healthz", f.handleHealthz)
	m.HandleFunc("/stats", f.handleStats)
	m.HandleFunc("/alerts", f.handleAlerts)
	m.HandleFunc("/prefix/", f.handlePrefix)
	m.HandleFunc("/dict", f.dictPage(renderDictIndex))
	m.HandleFunc("/dict/stats", f.dictPage(renderFleetDictStats))
	m.HandleFunc("/dict/", func(w http.ResponseWriter, r *http.Request) {
		if body := dictASPage(w, r, f.mergedDict); body != nil {
			writeJSON(w, body)
		}
	})
	m.Handle("/metrics", f.reg.Handler())
	return instrument(f.reg, m)
}

// gatherCache remembers, per range, the last ETag+body a path served,
// whichever replica served it, plus one merge of those bodies keyed by
// the joined ETag vector: the /stats body, the /alerts index, the
// merged dictionary.
type gatherCache struct {
	mu     sync.Mutex
	etags  []string
	bodies [][]byte

	mergedKey string
	merged    any
}

func (c *gatherCache) init(sets []*replicaSet) {
	c.etags = make([]string, len(sets))
	c.bodies = make([][]byte, len(sets))
}

// shardResult is one fetch's outcome: the body and its upstream ETag.
type shardResult struct {
	body []byte
	etag string
	err  error
}

// gather fetches path from every range concurrently — failing over
// inside each replica set — and returns the bodies plus the
// ETag-vector key. A range whose every replica fails fails the
// whole gather: a partial merge would silently drop a slice of the
// prefix space.
func (f *Frontend) gather(path string, c *gatherCache) ([][]byte, string, error) {
	start := time.Now()
	results := make([]shardResult, len(f.sets))
	var wg sync.WaitGroup
	for i := range f.sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = f.fetchSet(i, path, c)
		}(i)
	}
	wg.Wait()
	f.scatterHist.ObserveSince(start)

	bodies := make([][]byte, len(results))
	keys := make([]string, len(results))
	for i, res := range results {
		if res.err != nil {
			return nil, "", fmt.Errorf("shard %d: %w", i, res.err)
		}
		bodies[i] = res.body
		keys[i] = res.etag
	}
	return bodies, strings.Join(keys, "|"), nil
}

// walk runs attempt against one range's replicas in sticky
// preferred-first order until one succeeds. Each failed attempt that
// still has a candidate behind it counts as a failover; the error only
// surfaces when the whole set is down.
func (f *Frontend) walk(set *replicaSet, attempt func(ri int) error) error {
	attempts := set.order()
	var errs []string
	for n, ri := range attempts {
		err := attempt(ri)
		if err == nil {
			set.prefer(ri)
			return nil
		}
		f.upstreamErr.Inc()
		errs = append(errs, fmt.Sprintf("%s: %v", set.urls[ri], err))
		if n < len(attempts)-1 {
			f.failovers.Inc()
		}
	}
	return fmt.Errorf("all %d replicas failed: %s", len(set.urls), strings.Join(errs, "; "))
}

// fetchSet fetches path for one range from the first replica that
// answers, revalidating against what the range last served.
func (f *Frontend) fetchSet(si int, path string, c *gatherCache) shardResult {
	set := f.sets[si]
	var out shardResult
	err := f.walk(set, func(ri int) error {
		c.mu.Lock()
		etag, cached := c.etags[si], c.bodies[si]
		c.mu.Unlock()
		out = f.fetch(set.urls[ri]+path, etag, cached, func() {
			// A new body is coming: the range's old one, and the merge
			// built over it, do not live on while it is read.
			c.mu.Lock()
			c.etags[si], c.bodies[si] = "", nil
			c.mergedKey, c.merged = "", nil
			c.mu.Unlock()
		})
		if out.err != nil {
			return out.err
		}
		c.mu.Lock()
		c.etags[si], c.bodies[si] = out.etag, out.body
		c.mu.Unlock()
		return nil
	})
	if err != nil {
		return shardResult{err: err}
	}
	return out
}

// fetch GETs url, revalidating against etag; a 304 answer reuses the
// cached body. fresh, when non-nil, runs when a 200 answer arrives,
// before its body is read.
func (f *Frontend) fetch(url, etag string, cached []byte, fresh func()) shardResult {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return shardResult{err: err}
	}
	if etag != "" && cached != nil {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return shardResult{err: err}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return shardResult{body: cached, etag: etag}
	case http.StatusOK:
		if fresh != nil {
			fresh()
		}
		body, err := readBody(resp)
		if err != nil {
			return shardResult{err: err}
		}
		return shardResult{body: body, etag: resp.Header.Get("ETag")}
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return shardResult{err: fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	}
}

// readBody reads a 200 answer's body into one buffer of its declared
// length; only an answer that declares none is read by growing one.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 {
		return io.ReadAll(resp.Body)
	}
	body := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// mergedFor returns c's merge for key, building it with merge on a
// miss. The previous merge is dropped first, so building the next one
// does not keep it alive; a request still serving it holds its own
// reference.
func mergedFor[T any](c *gatherCache, key string, merge func() (T, error)) (T, error) {
	c.mu.Lock()
	if c.mergedKey == key && c.merged != nil {
		v := c.merged.(T)
		c.mu.Unlock()
		return v, nil
	}
	c.mergedKey, c.merged = "", nil
	c.mu.Unlock()
	v, err := merge()
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	c.mergedKey, c.merged = key, v
	c.mu.Unlock()
	return v, nil
}

// handleAlerts answers from the index of the shards' bodies: the full
// view and every detector's are written from the same index, so a
// filtered view is consistent with the full one.
func (f *Frontend) handleAlerts(w http.ResponseWriter, r *http.Request) {
	bodies, key, err := f.gather("/alerts", &f.alerts)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	x, err := mergedFor(&f.alerts, key, func() (*alertIndex, error) { return indexAlerts(bodies) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	x.write(w, r.URL.Query().Get("detector"))
}

func (f *Frontend) handlePrefix(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/prefix/")
	p, err := netip.ParsePrefix(raw)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad prefix %q: %v", raw, err), http.StatusBadRequest)
		return
	}
	owner := f.rm.Owner(p.Masked())
	set := f.sets[owner]
	err = f.walk(set, func(ri int) error {
		req, err := http.NewRequest(http.MethodGet, set.urls[ri]+"/prefix/"+raw, nil)
		if err != nil {
			return err
		}
		// Forward the client's revalidation. A shard's ETag is derived
		// from the body it validates, so whichever replica answers, a
		// 304 means the client already holds these exact bytes.
		if inm := r.Header.Get("If-None-Match"); inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := f.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 500 {
			// An erroring replica is indistinguishable from a dead one for
			// routing purposes: drain the reason and try the next.
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		// Any non-5xx answer is authoritative for the range — 200, 304,
		// and 404 (prefix not tracked) all propagate to the client.
		for _, h := range []string{"Content-Type", "Content-Length", "ETag"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		return nil
	})
	if err != nil {
		http.Error(w, fmt.Sprintf("shard %d: %v", owner, err), http.StatusBadGateway)
	}
}

// frontendStats is the /stats response shape: each shard's snapshot
// plus the additive totals.
type frontendStats struct {
	Shards []watch.Stats `json:"shards"`
	Total  watch.Stats   `json:"total"`
}

func (f *Frontend) handleStats(w http.ResponseWriter, r *http.Request) {
	bodies, key, err := f.gather("/stats", &f.stats)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	body, err := mergedFor(&f.stats, key, func() ([]byte, error) {
		payload := frontendStats{Total: watch.Stats{ByDetector: map[string]uint64{}}}
		for i, b := range bodies {
			var st watch.Stats
			if err := json.Unmarshal(b, &st); err != nil {
				return nil, fmt.Errorf("shard %d /stats: %w", i, err)
			}
			payload.Shards = append(payload.Shards, st)
			t := &payload.Total
			t.Ingested += st.Ingested
			t.Processed += st.Processed
			t.Pending += st.Pending
			t.Alerts += st.Alerts
			t.AlertsTruncated += st.AlertsTruncated
			t.TrackedPrefixes += st.TrackedPrefixes
			t.Shards += st.Shards
			t.Version += st.Version
			t.WindowEvents, t.Window = st.WindowEvents, st.Window
			for k, v := range st.ByDetector {
				t.ByDetector[k] += v
			}
		}
		return json.MarshalIndent(payload, "", "  ")
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, body)
}

// mergedDict gathers /dict/export from every shard and returns the
// merged dictionary, cached on the shard ETag vector.
func (f *Frontend) mergedDict() (*semantics.Snapshot, error) {
	bodies, key, err := f.gather("/dict/export", &f.dict)
	if err != nil {
		return nil, err
	}
	return mergedFor(&f.dict, key, func() (*semantics.Snapshot, error) {
		lists := make([][]semantics.Export, len(bodies))
		var observations uint64
		for i, b := range bodies {
			var p dictExportPayload
			if err := json.Unmarshal(b, &p); err != nil {
				return nil, fmt.Errorf("shard %d /dict/export: %w", i, err)
			}
			lists[i] = p.Entries
			observations += p.Observations
		}
		return semantics.Merge(observations, lists...), nil
	})
}

// dictPage serves a /dict page rendered from the merged dictionary.
func (f *Frontend) dictPage(render func(*semantics.Snapshot) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap, err := f.mergedDict()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		body, err := render(snap)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, body)
	}
}

// frontendDictStats is the merged /dict/stats shape: the dictionary
// shape a shard reports of its snapshot, read off the merged one, and
// the fleet-wide observation count.
type frontendDictStats struct {
	Observations uint64         `json:"observations"`
	Communities  int            `json:"communities"`
	ASes         int            `json:"ases"`
	ByClass      map[string]int `json:"by_class"`
}

func renderFleetDictStats(snap *semantics.Snapshot) ([]byte, error) {
	return json.MarshalIndent(frontendDictStats{
		Observations: snap.Observations,
		Communities:  snap.Len(),
		ASes:         len(snap.ASNs()),
		ByClass:      snap.ByClass(),
	}, "", "  ")
}

func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// A range is healthy while at least one replica answers; the
	// frontend only degrades (and 503s) when a whole replica set is
	// down, mirroring the serving paths' failover.
	type replicaHealth struct {
		URL    string `json:"url"`
		Status string `json:"status"`
	}
	type shardHealth struct {
		URL      string          `json:"url"`
		Status   string          `json:"status"`
		Detail   json.RawMessage `json:"detail,omitempty"`
		Replicas []replicaHealth `json:"replicas,omitempty"`
	}
	payload := struct {
		Status        string        `json:"status"`
		Role          string        `json:"role"`
		UptimeSeconds int64         `json:"uptime_seconds"`
		ShardCount    int           `json:"shards"`
		ShardsHealthy int           `json:"shards_healthy"`
		ShardStatuses []shardHealth `json:"shard_statuses"`
	}{Status: "ok", Role: "frontend", UptimeSeconds: int64(time.Since(f.start).Seconds()), ShardCount: len(f.sets)}
	for _, set := range f.sets {
		h := shardHealth{URL: set.urls[0], Status: "ok"}
		healthy := false
		var firstErr string
		for _, base := range set.urls {
			res := f.fetch(base+"/healthz", "", nil, nil)
			status := "ok"
			// A probe observes: it does not mark, because a success would
			// make the last replica probed the sticky one on every poll.
			if res.err != nil {
				f.upstreamErr.Inc()
				status = res.err.Error()
				if firstErr == "" {
					firstErr = status
				}
			} else if !healthy {
				h.URL, h.Detail = base, json.RawMessage(res.body)
				healthy = true
			}
			if len(set.urls) > 1 {
				h.Replicas = append(h.Replicas, replicaHealth{URL: base, Status: status})
			}
		}
		if healthy {
			payload.ShardsHealthy++
		} else {
			h.Status = firstErr
			payload.Status = "degraded"
		}
		payload.ShardStatuses = append(payload.ShardStatuses, h)
	}
	body, _ := json.MarshalIndent(payload, "", "  ")
	if payload.Status != "ok" {
		body = append(body, '\n')
		jsonHeader(w, len(body))
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(body)
		return
	}
	writeJSON(w, body)
}
