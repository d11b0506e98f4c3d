// Package serve is wormwatchd's HTTP layer, split out of the command so
// the serving path is testable and benchmarkable without a process
// boundary. It has two faces:
//
//   - Server wraps one engine pair (watch + semantics) with
//     version-keyed JSON snapshot caches: a response body is rendered
//     once per engine change and shared by every concurrent reader at
//     that version. When a durable.Store is attached, /durable reports
//     its watermarks.
//   - Frontend (frontend.go) is the thin scatter-gather tier for the
//     sharded daemon: prefix-range ownership (rangemap.go) maps feeds
//     to N shard processes, and the frontend merges their version-keyed
//     snapshots into single-process-identical responses.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"bgpworms/internal/durable"
	"bgpworms/internal/obs"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// Options assembles a shard server. Watch and Registry are required;
// the rest are optional.
type Options struct {
	Watch *watch.Engine
	// Semantics + Holder power the /dict endpoints; nil disables them.
	Semantics *semantics.Engine
	Holder    *semantics.Holder
	// Registry is rendered on /metrics together with the Collect series
	// of Watch, Semantics and Store; a binary passes obs.Default.
	Registry *obs.Registry
	// Store, when non-nil, surfaces the durability subsystem on
	// /durable.
	Store *durable.Store
	// ShardIndex / ShardCount identify this process in a sharded
	// deployment (0 / 1 when standalone); served on /healthz and
	// /durable so operators and the frontend can tell shards apart.
	ShardIndex int
	ShardCount int
	// Pprof exposes /debug/pprof/.
	Pprof bool
}

// Server wraps the engines with version-keyed JSON snapshot caches.
type Server struct {
	opts      Options
	start     time.Time
	alerts    snapshotCache
	stats     snapshotCache
	dictIndex snapshotCache
	dictStats snapshotCache
	dictExp   snapshotCache
}

// New builds the server. It does not start listening — mount Handler
// on an http.Server (or hit it directly in tests and benchmarks).
func New(opts Options) *Server {
	if opts.ShardCount <= 0 {
		opts.ShardCount = 1
	}
	return &Server{opts: opts, start: time.Now()}
}

func (s *Server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/healthz", s.handleHealthz)
	m.HandleFunc("/stats", s.handleStats)
	m.HandleFunc("/alerts", s.handleAlerts)
	m.HandleFunc("/prefix/", s.handlePrefix)
	m.HandleFunc("/durable", s.handleDurable)
	m.HandleFunc("/dict", s.handleDictIndex)
	m.HandleFunc("/dict/stats", s.handleDictStats)
	m.HandleFunc("/dict/export", s.handleDictExport)
	m.HandleFunc("/dict/", s.handleDictAS)
	collect := []func(func(obs.Sample)){s.opts.Watch.Collect}
	if s.opts.Semantics != nil {
		collect = append(collect, s.opts.Semantics.Collect)
	}
	if s.opts.Store != nil {
		collect = append(collect, s.opts.Store.Collect)
	}
	m.Handle("/metrics", s.opts.Registry.Handler(collect...))
	if s.opts.Pprof {
		m.HandleFunc("/debug/pprof/", pprof.Index)
		m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		m.HandleFunc("/debug/pprof/profile", pprof.Profile)
		m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return m
}

// Handler returns the server's HTTP surface with the HTTP-layer
// instrumentation around it.
func (s *Server) Handler() http.Handler { return instrument(s.opts.Registry, s.mux()) }

// instrument wraps a mux with the HTTP-layer instrumentation: a request
// counter per route class and one latency histogram. Routes are
// labeled by their fixed first segment (parameterized tails collapse),
// so series cardinality is bounded by the endpoint table.
func instrument(reg *obs.Registry, m *http.ServeMux) http.Handler {
	hist := reg.Histogram("http_request_seconds",
		"HTTP request service time", obs.DurationBuckets)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.ServeHTTP(w, r)
		hist.ObserveSince(start)
		reg.Counter(`http_requests_total{path="`+routeLabel(r.URL.Path)+`"}`,
			"HTTP requests by route").Inc()
	})
}

// routeLabel collapses a request path to its route class.
func routeLabel(path string) string {
	switch {
	case path == "/healthz", path == "/stats", path == "/alerts", path == "/metrics",
		path == "/durable", path == "/dict", path == "/dict/stats", path == "/dict/export":
		return path
	case strings.HasPrefix(path, "/prefix/"):
		return "/prefix"
	case strings.HasPrefix(path, "/dict/"):
		return "/dict/{asn}"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	default:
		return "other"
	}
}

// dictSnapshot returns the dictionary view requests are served from:
// the holder's heartbeat copy (at most one heartbeat stale — the same
// snapshot the detectors consult), computed directly only on cold
// start before the first heartbeat. Serving the heartbeat snapshot
// keeps /dict reads from stalling ingest on flush barriers.
func (s *Server) dictSnapshot() *semantics.Snapshot {
	if snap := s.opts.Holder.Load(); snap != nil {
		return snap
	}
	snap := s.opts.Semantics.Snapshot()
	s.opts.Holder.Store(snap)
	return snap
}

// snapshotCache is a version-keyed rendered-JSON cache safe for
// concurrent readers: the fast path is a shared read lock and a byte
// slice copy-free write.
type snapshotCache struct {
	mu      sync.RWMutex
	version uint64
	valid   bool
	body    []byte
}

func (c *snapshotCache) get(version uint64, render func() ([]byte, error)) ([]byte, error) {
	c.mu.RLock()
	if c.valid && c.version == version {
		body := c.body
		c.mu.RUnlock()
		return body, nil
	}
	c.mu.RUnlock()
	body, err := render()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	// Last writer at the newest version wins; stale renders are simply
	// not cached over a fresher one.
	if !c.valid || version >= c.version {
		c.version, c.valid, c.body = version, true, body
	}
	c.mu.Unlock()
	return body, nil
}

func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
}

// versionedJSON writes body with an ETag derived from version, honoring
// If-None-Match — the frontend's cheap revalidation path: an unchanged
// shard answers 304 with no body. The ETag rides a header rather than
// the payload so the body stays byte-identical to a single-process
// render.
func versionedJSON(w http.ResponseWriter, r *http.Request, version uint64, body []byte) {
	etag := `"v` + strconv.FormatUint(version, 10) + `"`
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.opts.Watch.Stats()
	build := obs.BuildInfo()
	payload := map[string]any{
		"status":         "ok",
		"start_time":     s.start.UTC().Format(time.RFC3339),
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"go_version":     build.GoVersion,
		"git_sha":        build.GitSHA,
		"ingested":       st.Ingested,
		"alerts":         st.Alerts,
	}
	if s.opts.ShardCount > 1 {
		payload["shard"] = s.opts.ShardIndex
		payload["shards"] = s.opts.ShardCount
	}
	body, _ := json.Marshal(payload)
	writeJSON(w, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	version := s.opts.Watch.Version()
	body, err := s.stats.get(version, func() ([]byte, error) {
		return json.MarshalIndent(s.opts.Watch.Stats(), "", "  ")
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	versionedJSON(w, r, version, body)
}

// durablePayload is the /durable response shape.
type durablePayload struct {
	Enabled bool `json:"enabled"`
	// Shard / Shards identify this process in a sharded deployment.
	Shard  int             `json:"shard"`
	Shards int             `json:"shards"`
	Status *durable.Status `json:"status,omitempty"`
}

// handleDurable reports the durability subsystem's watermarks (WAL
// size, checkpoint coverage, sticky errors) and this process's shard
// identity.
func (s *Server) handleDurable(w http.ResponseWriter, r *http.Request) {
	payload := durablePayload{
		Enabled: s.opts.Store != nil,
		Shard:   s.opts.ShardIndex,
		Shards:  s.opts.ShardCount,
	}
	if s.opts.Store != nil {
		st := s.opts.Store.Status()
		payload.Status = &st
	}
	body, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, body)
}

// alertsPayload is the /alerts response shape.
type alertsPayload struct {
	Count  int           `json:"count"`
	Alerts []watch.Alert `json:"alerts"`
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	version := s.opts.Watch.Version()
	if det := r.URL.Query().Get("detector"); det != "" {
		// Filtered views are per-query; only the full view is cached.
		var filtered []watch.Alert
		for _, a := range s.opts.Watch.Alerts() {
			if a.Detector == det {
				filtered = append(filtered, a)
			}
		}
		body, err := json.MarshalIndent(alertsPayload{Count: len(filtered), Alerts: filtered}, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		versionedJSON(w, r, version, body)
		return
	}
	body, err := s.alerts.get(version, func() ([]byte, error) {
		alerts := s.opts.Watch.Alerts()
		return json.MarshalIndent(alertsPayload{Count: len(alerts), Alerts: alerts}, "", "  ")
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	versionedJSON(w, r, version, body)
}

// dictIndexPayload is the /dict response shape.
type dictIndexPayload struct {
	Observations uint64          `json:"observations"`
	Communities  int             `json:"communities"`
	ASes         []dictIndexItem `json:"ases"`
}

type dictIndexItem struct {
	ASN     uint16 `json:"asn"`
	Entries int    `json:"entries"`
}

// handleDictIndex lists every AS with inferred entries — the discovery
// entry point for /dict/{asn}.
func (s *Server) handleDictIndex(w http.ResponseWriter, r *http.Request) {
	if s.opts.Semantics == nil {
		http.Error(w, "dictionary inference disabled (-dict=false)", http.StatusNotFound)
		return
	}
	snap := s.dictSnapshot()
	body, err := s.dictIndex.get(snap.Version, func() ([]byte, error) {
		payload := dictIndexPayload{Observations: snap.Observations, Communities: snap.Len()}
		for _, asn := range snap.ASNs() {
			payload.ASes = append(payload.ASes, dictIndexItem{ASN: asn, Entries: len(snap.AS(asn))})
		}
		return json.MarshalIndent(payload, "", "  ")
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, body)
}

func (s *Server) handleDictStats(w http.ResponseWriter, r *http.Request) {
	if s.opts.Semantics == nil {
		http.Error(w, "dictionary inference disabled (-dict=false)", http.StatusNotFound)
		return
	}
	snap := s.dictSnapshot()
	body, err := s.dictStats.get(snap.Version, func() ([]byte, error) {
		return json.MarshalIndent(s.opts.Semantics.StatsOf(snap), "", "  ")
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, body)
}

// dictExportPayload is the /dict/export response shape: the whole
// dictionary in one page, the scatter unit the frontend merges.
type dictExportPayload struct {
	Version      uint64             `json:"version"`
	Observations uint64             `json:"observations"`
	Count        int                `json:"count"`
	Entries      []*semantics.Entry `json:"entries"`
}

// handleDictExport serves the full inferred dictionary. The frontend
// fetches this from every shard (with If-None-Match revalidation) and
// merges the partials; it is also a bulk-download convenience for
// operators.
func (s *Server) handleDictExport(w http.ResponseWriter, r *http.Request) {
	if s.opts.Semantics == nil {
		http.Error(w, "dictionary inference disabled (-dict=false)", http.StatusNotFound)
		return
	}
	snap := s.dictSnapshot()
	body, err := s.dictExp.get(snap.Version, func() ([]byte, error) {
		entries := snap.Entries()
		return json.MarshalIndent(dictExportPayload{
			Version:      snap.Version,
			Observations: snap.Observations,
			Count:        len(entries),
			Entries:      entries,
		}, "", "  ")
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	versionedJSON(w, r, snap.Version, body)
}

// dictASPayload is the /dict/{asn} response shape.
type dictASPayload struct {
	ASN     uint16             `json:"asn"`
	Count   int                `json:"count"`
	Entries []*semantics.Entry `json:"entries"`
}

func (s *Server) handleDictAS(w http.ResponseWriter, r *http.Request) {
	if s.opts.Semantics == nil {
		http.Error(w, "dictionary inference disabled (-dict=false)", http.StatusNotFound)
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/dict/")
	asn, err := strconv.ParseUint(raw, 10, 16)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad ASN %q: %v", raw, err), http.StatusBadRequest)
		return
	}
	snap := s.dictSnapshot()
	entries := snap.AS(uint16(asn))
	if len(entries) == 0 {
		http.Error(w, fmt.Sprintf("no dictionary entries for AS%d", asn), http.StatusNotFound)
		return
	}
	body, err := json.MarshalIndent(dictASPayload{ASN: uint16(asn), Count: len(entries), Entries: entries}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	versionedJSON(w, r, snap.Version, body)
}

func (s *Server) handlePrefix(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/prefix/")
	p, err := netip.ParsePrefix(raw)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad prefix %q: %v", raw, err), http.StatusBadRequest)
		return
	}
	version := s.opts.Watch.Version()
	info, ok := s.opts.Watch.PrefixInfo(p)
	if !ok {
		http.Error(w, fmt.Sprintf("prefix %s not tracked", p), http.StatusNotFound)
		return
	}
	body, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	versionedJSON(w, r, version, body)
}
