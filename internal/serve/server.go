// Package serve is wormwatchd's HTTP layer, split out of the command so
// the serving path is testable and benchmarkable without a process
// boundary. It has two faces:
//
//   - Server wraps one engine pair (watch + semantics) with
//     version-keyed JSON snapshot caches: a response body is rendered
//     once per engine change and shared by every concurrent reader at
//     that version, under an ETag derived from its bytes. When a
//     durable.Store is attached, /durable reports its watermarks.
//   - Frontend (frontend.go) is the thin scatter-gather tier for the
//     sharded daemon: prefix-range ownership (rangemap.go) maps feeds
//     to N shard processes, and the frontend merges their snapshots into
//     single-process-identical responses.
package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
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
	// Semantics powers the /dict endpoints from its published snapshot;
	// nil disables them.
	Semantics *semantics.Engine
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
	collect := []func(func(obs.Sample)){s.opts.Watch.Collect}
	if s.opts.Semantics != nil {
		m.HandleFunc("/dict", s.handleDictIndex)
		m.HandleFunc("/dict/stats", s.handleDictStats)
		m.HandleFunc("/dict/export", s.handleDictExport)
		m.HandleFunc("/dict/", s.handleDictAS)
		collect = append(collect, s.opts.Semantics.Collect)
	} else {
		off := func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "dictionary inference disabled (-dict=false)", http.StatusNotFound)
		}
		m.HandleFunc("/dict", off)
		m.HandleFunc("/dict/", off)
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
// the engine's published snapshot (at most one heartbeat stale — the
// same snapshot the detectors consult), taken here only on cold start
// before the first heartbeat. Serving the published snapshot keeps
// /dict reads from stalling ingest on flush barriers.
func (s *Server) dictSnapshot() *semantics.Snapshot {
	if snap := s.opts.Semantics.Published(); snap != nil {
		return snap
	}
	return s.opts.Semantics.Snapshot()
}

// snapshotCache is a version-keyed rendered-JSON cache safe for
// concurrent readers: the fast path is a shared read lock and a byte
// slice copy-free write. Each render's ETag is computed once, with it.
type snapshotCache struct {
	mu      sync.RWMutex
	version uint64
	valid   bool
	body    []byte
	etag    string
}

func (c *snapshotCache) get(version uint64, render func() ([]byte, error)) (body []byte, etag string, err error) {
	c.mu.RLock()
	if c.valid && c.version == version {
		body, etag = c.body, c.etag
		c.mu.RUnlock()
		return body, etag, nil
	}
	c.mu.RUnlock()
	// Drop an older render before building this one, so the build does
	// not keep it alive; a reader serving it holds its own reference.
	c.mu.Lock()
	if c.valid && c.version < version {
		c.valid, c.body, c.etag = false, nil, ""
	}
	c.mu.Unlock()
	if body, err = render(); err != nil {
		return nil, "", err
	}
	etag = contentETag(body)
	c.mu.Lock()
	// Last writer at the newest version wins; stale renders are simply
	// not cached over a fresher one.
	if !c.valid || version >= c.version {
		c.version, c.valid, c.body, c.etag = version, true, body, etag
	}
	c.mu.Unlock()
	return body, etag, nil
}

// jsonHeader declares a JSON response of n bytes.
func jsonHeader(w http.ResponseWriter, n int) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
}

// writeJSON writes body as a JSON response that ends in a newline, with
// its length declared.
func writeJSON(w http.ResponseWriter, body []byte) {
	newline := len(body) == 0 || body[len(body)-1] != '\n'
	n := len(body)
	if newline {
		n++
	}
	jsonHeader(w, n)
	w.Write(body)
	if newline {
		w.Write([]byte("\n"))
	}
}

// castagnoli is the CRC-32C table content ETags are computed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// contentETag derives an ETag from the bytes it validates: CRC-32C plus
// length. Unlike a version counter it means the same thing in every
// process and every view: two responses share an ETag only if their
// bodies match, whichever replica, process life or ?detector filter
// rendered them.
func contentETag(body []byte) string {
	return fmt.Sprintf(`"%08x-%x"`, crc32.Checksum(body, castagnoli), len(body))
}

// taggedJSON writes body with its ETag, honoring If-None-Match — the
// frontend's cheap revalidation path: an unchanged shard answers 304
// with no body. The ETag rides a header rather than the payload so the
// body stays byte-identical to a single-process render.
func taggedJSON(w http.ResponseWriter, r *http.Request, etag string, body []byte) {
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
	body, etag, err := s.stats.get(s.opts.Watch.Version(), func() ([]byte, error) {
		return json.MarshalIndent(s.opts.Watch.Stats(), "", "  ")
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	taggedJSON(w, r, etag, body)
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

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if det := r.URL.Query().Get("detector"); det != "" {
		// Filtered views are per-query; only the full view is cached.
		body, err := alertsBody(s.opts.Watch.AlertsOf(det))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		taggedJSON(w, r, contentETag(body), body)
		return
	}
	body, etag, err := s.alerts.get(s.opts.Watch.Version(), func() ([]byte, error) {
		return alertsBody(s.opts.Watch.Alerts())
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	taggedJSON(w, r, etag, body)
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

// renderDictIndex renders the /dict body of a dictionary: every AS with
// inferred entries, the discovery entry point for /dict/{asn}. A shard
// renders its published snapshot, the frontend the merge of its shards'.
func renderDictIndex(snap *semantics.Snapshot) ([]byte, error) {
	payload := dictIndexPayload{Observations: snap.Observations, Communities: snap.Len()}
	for _, asn := range snap.ASNs() {
		payload.ASes = append(payload.ASes, dictIndexItem{ASN: asn, Entries: len(snap.AS(asn))})
	}
	return json.MarshalIndent(payload, "", "  ")
}

func (s *Server) handleDictIndex(w http.ResponseWriter, r *http.Request) {
	snap := s.dictSnapshot()
	body, _, err := s.dictIndex.get(snap.Version, func() ([]byte, error) { return renderDictIndex(snap) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, body)
}

func (s *Server) handleDictStats(w http.ResponseWriter, r *http.Request) {
	snap := s.dictSnapshot()
	body, _, err := s.dictStats.get(snap.Version, func() ([]byte, error) {
		return json.MarshalIndent(s.opts.Semantics.StatsOf(snap), "", "  ")
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, body)
}

// dictExportPayload is the /dict/export response shape: the whole
// dictionary in one page, each entry with its community's peer list —
// the scatter unit the frontend merges.
type dictExportPayload struct {
	Version      uint64             `json:"version"`
	Observations uint64             `json:"observations"`
	Count        int                `json:"count"`
	Entries      []semantics.Export `json:"entries"`
}

// handleDictExport serves the full inferred dictionary. The frontend
// fetches this from every shard (with If-None-Match revalidation) and
// merges the partials; it is also a bulk-download convenience for
// operators. It is machine-read, so it is compact JSON: an indented
// peer list costs a line per peer.
func (s *Server) handleDictExport(w http.ResponseWriter, r *http.Request) {
	snap := s.dictSnapshot()
	body, etag, err := s.dictExp.get(snap.Version, func() ([]byte, error) {
		entries := snap.Exports()
		return json.Marshal(dictExportPayload{
			Version:      snap.Version,
			Observations: snap.Observations,
			Count:        len(entries),
			Entries:      entries,
		})
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	taggedJSON(w, r, etag, body)
}

// dictASPayload is the /dict/{asn} response shape.
type dictASPayload struct {
	ASN     uint16             `json:"asn"`
	Count   int                `json:"count"`
	Entries []*semantics.Entry `json:"entries"`
}

// dictASPage renders the /dict/{asn} body from the dictionary dict
// returns, for a shard and the frontend alike. On nil it has answered the
// request itself: 400 for a bad ASN, 502 when dict fails, 404 for an AS
// without entries.
func dictASPage(w http.ResponseWriter, r *http.Request, dict func() (*semantics.Snapshot, error)) []byte {
	raw := strings.TrimPrefix(r.URL.Path, "/dict/")
	asn, err := strconv.ParseUint(raw, 10, 16)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad ASN %q: %v", raw, err), http.StatusBadRequest)
		return nil
	}
	snap, err := dict()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return nil
	}
	entries := snap.AS(uint16(asn))
	if len(entries) == 0 {
		http.Error(w, fmt.Sprintf("no dictionary entries for AS%d", asn), http.StatusNotFound)
		return nil
	}
	body, err := json.MarshalIndent(dictASPayload{ASN: uint16(asn), Count: len(entries), Entries: entries}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil
	}
	return body
}

func (s *Server) handleDictAS(w http.ResponseWriter, r *http.Request) {
	if body := dictASPage(w, r, func() (*semantics.Snapshot, error) { return s.dictSnapshot(), nil }); body != nil {
		taggedJSON(w, r, contentETag(body), body)
	}
}

func (s *Server) handlePrefix(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/prefix/")
	p, err := netip.ParsePrefix(raw)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad prefix %q: %v", raw, err), http.StatusBadRequest)
		return
	}
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
	taggedJSON(w, r, contentETag(body), body)
}
