package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/serve"
	"bgpworms/internal/watch"
)

// TestMain doubles as the kill -9 helper: with WORMWATCHD_HELPER set,
// the test binary IS the daemon, so SIGKILL genuinely loses everything
// that is not in the WAL.
func TestMain(m *testing.M) {
	if os.Getenv("WORMWATCHD_HELPER") == "1" {
		helperMain()
		return
	}
	os.Exit(m.Run())
}

// helperMain runs the real daemon life cycle in durable feed-listen
// mode, reporting the bound addresses on stdout for the parent test.
func helperMain() {
	cfg := config{
		addr:       "127.0.0.1:0",
		feedListen: "127.0.0.1:0",
		walDir:     os.Getenv("WORMWATCHD_WAL"),
		fsync:      2 * time.Millisecond,
		shardCount: 1,
		reg:        obs.NewRegistry(),
		ready:      func(a string) { fmt.Printf("ADDR %s\n", a) },
		feedReady:  func(a string) { fmt.Printf("FEED %s\n", a) },
	}
	if err := runDaemon(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
}

// newTestServer assembles the daemon's HTTP stack as main does, on
// obs.Default, where the process-wide instruments live. The engines are
// fresh, so the per-instance series on the page are this test's own.
func newTestServer(t *testing.T) (*watch.Engine, *semantics.Engine, http.Handler) {
	t.Helper()
	sem := semantics.NewEngine(semantics.Config{})
	eng := watch.NewEngine(watch.Config{Shards: 4, Semantics: sem, Dict: sem})
	srv := serve.New(serve.Options{Watch: eng, Semantics: sem, Registry: obs.Default, Pprof: true})
	return eng, sem, srv.Handler()
}

func testEvent(i int) feed.Event {
	return feed.Event{
		PeerAS:      65001,
		Prefix:      netip.MustParsePrefix("10.0.0.0/24"),
		ASPath:      []uint32{65001, 65000, uint32(7000 + i%4)},
		Communities: bgp.NewCommunitySet(bgp.C(65000, uint16(i%8))),
	}
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	b, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(b)
}

// TestMetricsAndStatsDuringIngest hammers /metrics and /stats while a
// concurrent feed is mid-flight; under -race this is the daemon-level
// thread-safety proof for the scrape path.
func TestMetricsAndStatsDuringIngest(t *testing.T) {
	eng, sem, h := newTestServer(t)
	defer sem.Close()
	defer eng.Close()

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
				if code, _ := get(t, h, "/metrics"); code != http.StatusOK {
					t.Errorf("/metrics status %d", code)
					return
				}
				if code, _ := get(t, h, "/stats"); code != http.StatusOK {
					t.Errorf("/stats status %d", code)
					return
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		eng.Ingest(testEvent(i))
	}
	eng.Flush()
	close(stop)
	wg.Wait()

	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, series := range []string{
		"watch_ingested_total 20000",
		"semantics_ingested_total 20000",
		"# TYPE watch_batch_seconds histogram",
		"# TYPE http_request_seconds histogram",
		`http_requests_total{path="/metrics"}`,
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, body)
		}
	}
}

// TestHealthzBuildInfo pins the /healthz shape: liveness counters plus
// the build record shared with suite provenance.
func TestHealthzBuildInfo(t *testing.T) {
	eng, sem, h := newTestServer(t)
	defer sem.Close()
	defer eng.Close()
	code, body := get(t, h, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var payload map[string]any
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	for _, key := range []string{"status", "start_time", "uptime_seconds", "go_version", "git_sha", "ingested"} {
		if _, ok := payload[key]; !ok {
			t.Fatalf("/healthz missing %q: %s", key, body)
		}
	}
	if payload["go_version"] == "" || payload["git_sha"] == "" {
		t.Fatalf("empty build info: %s", body)
	}
}

// TestPprofGate pins that the profiling mux is flag-gated.
func TestPprofGate(t *testing.T) {
	reg := obs.NewRegistry()
	eng := watch.NewEngine(watch.Config{Shards: 1})
	defer eng.Close()
	srv := serve.New(serve.Options{Watch: eng, Registry: reg})
	if code, _ := get(t, srv.Handler(), "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof served without -pprof: %d", code)
	}
	srv = serve.New(serve.Options{Watch: eng, Registry: reg, Pprof: true})
	if code, _ := get(t, srv.Handler(), "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof gated despite -pprof: %d", code)
	}
}

// daemon runs runDaemon in-process (runFrontend when cfg.frontend is
// set) with injected signals and reports the bound address — the
// harness for daemon-lifecycle tests. Without cfg.reg it serves a
// private registry.
type daemon struct {
	cfg      config
	signals  chan os.Signal
	addr     chan string
	feedAddr chan string
	done     chan error
}

func startDaemon(t *testing.T, cfg config) *daemon {
	t.Helper()
	d := &daemon{
		cfg:      cfg,
		signals:  make(chan os.Signal, 2),
		addr:     make(chan string, 1),
		feedAddr: make(chan string, 1),
		done:     make(chan error, 1),
	}
	d.cfg.addr = "127.0.0.1:0"
	if d.cfg.shardCount == 0 {
		d.cfg.shardCount = 1
	}
	if d.cfg.reg == nil {
		d.cfg.reg = obs.NewRegistry()
	}
	d.cfg.signals = d.signals
	d.cfg.ready = func(a string) { d.addr <- a }
	if d.cfg.feedListen != "" {
		d.cfg.feedReady = func(a string) { d.feedAddr <- a }
	}
	run := runDaemon
	if d.cfg.frontend != "" {
		run = runFrontend
	}
	go func() { d.done <- run(d.cfg) }()
	return d
}

// feed blocks until the -feed-listen socket is up.
func (d *daemon) feed(t *testing.T) string {
	t.Helper()
	select {
	case a := <-d.feedAddr:
		return a
	case err := <-d.done:
		t.Fatalf("daemon exited before the feed listener was up: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never bound the feed listener")
	}
	return ""
}

// url blocks until the listener is up.
func (d *daemon) url(t *testing.T) string {
	t.Helper()
	select {
	case a := <-d.addr:
		return "http://" + a
	case err := <-d.done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never bound a listener")
	}
	return ""
}

// stop sends SIGTERM and waits for the graceful-shutdown path to run to
// completion.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.signals <- syscall.SIGTERM
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not shut down after SIGTERM")
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// waitStable polls url until fn(body) is true and the body stops
// changing between polls — "the feed finished and the render settled".
func waitStable(t *testing.T, url string, fn func(string) bool) string {
	t.Helper()
	var last string
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, body := httpGet(t, url)
		if fn(body) && body == last {
			return body
		}
		last = body
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never stabilized; last body:\n%s", url, last)
	return ""
}

// TestDaemonGracefulShutdownAndRestart is the daemon-level durability
// test: a SIGTERM'd daemon must drain its feed, write a final
// checkpoint, and close its listener; a restart on the same WAL
// directory must recover and serve the identical alert set without
// re-processing the feed.
func TestDaemonGracefulShutdownAndRestart(t *testing.T) {
	walDir := t.TempDir()
	cfg := config{
		scenario:     "rtbh",
		walDir:       walDir,
		snapInterval: 0, // only the shutdown checkpoint
		fsync:        5 * time.Millisecond,
	}

	d1 := startDaemon(t, cfg)
	base := d1.url(t)
	alerts1 := waitStable(t, base+"/alerts", func(body string) bool {
		return !strings.Contains(body, `"count": 0`)
	})
	stats1 := waitStable(t, base+"/stats", func(string) bool { return true })
	d1.stop(t)

	// Graceful shutdown closed the listener...
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatalf("listener still serving after shutdown")
	}
	// ...and left a final checkpoint behind.
	snaps, err := filepath.Glob(filepath.Join(walDir, "snap-*.ckpt"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no checkpoint after graceful shutdown (err=%v)", err)
	}

	// Restart on the same directory: recovery restores the full state
	// before the listener comes up, and the re-fed scenario is entirely
	// skipped (resume-skip), so /alerts is byte-identical immediately.
	d2 := startDaemon(t, cfg)
	base2 := d2.url(t)
	defer d2.stop(t)

	_, alerts2 := httpGet(t, base2+"/alerts")
	if alerts2 != alerts1 {
		t.Fatalf("restart lost or changed alerts:\nbefore: %.300s\nafter: %.300s", alerts1, alerts2)
	}
	_, durableBody := httpGet(t, base2+"/durable")
	var dp struct {
		Enabled bool `json:"enabled"`
		Status  struct {
			Recovered uint64 `json:"recovered"`
		} `json:"status"`
	}
	if err := json.Unmarshal([]byte(durableBody), &dp); err != nil {
		t.Fatalf("/durable: %v\n%s", err, durableBody)
	}
	if !dp.Enabled || dp.Status.Recovered == 0 {
		t.Fatalf("restart did not recover from checkpoint: %s", durableBody)
	}

	// The skipped re-feed must not change /stats beyond the resume
	// bookkeeping: ingested counts match the first run's final state.
	// The snapshot version counter restarts on restore, so compare
	// everything but "version".
	stats2 := waitStable(t, base2+"/stats", func(string) bool { return true })
	if got, want := statsSansVersion(t, stats2), statsSansVersion(t, stats1); got != want {
		t.Fatalf("restart stats diverged:\nbefore: %s\nafter: %s", want, got)
	}
}

// statsSansVersion canonicalizes a /stats body with the snapshot
// version dropped (restores restart the version counter).
func statsSansVersion(t *testing.T, body string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("stats unmarshal: %v\n%s", err, body)
	}
	delete(m, "version")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("stats marshal: %v", err)
	}
	return string(out)
}

// mrtParts synthesizes two MRT byte streams for the live feed tests:
// a deterministic tiny Internet's churn, split across its collectors so
// each part starts on a record boundary.
func mrtParts(t *testing.T) (part1, part2 []byte) {
	t.Helper()
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	if len(w.Collectors) < 2 {
		t.Fatalf("tiny world has %d collectors, need 2", len(w.Collectors))
	}
	var a, b bytes.Buffer
	for i, c := range w.Collectors {
		buf := &a
		if i == len(w.Collectors)-1 {
			buf = &b
		}
		if _, err := c.WriteUpdatesMRT(buf); err != nil {
			t.Fatal(err)
		}
	}
	return a.Bytes(), b.Bytes()
}

// eventCount decodes an MRT byte stream locally to learn how many
// events the daemon will ingest from it.
func eventCount(t *testing.T, raw []byte) uint64 {
	t.Helper()
	n, err := feed.StreamMRT(bytes.NewReader(raw), "mrt:feed", func(feed.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	return uint64(n)
}

// streamFeed writes one MRT byte stream over a fresh feed connection
// and closes it (a clean end-of-stream for the daemon side).
func streamFeed(t *testing.T, addr string, raw []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial feed %s: %v", addr, err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatalf("stream feed: %v", err)
	}
}

// durableStatus is the /durable slice the live-feed tests assert on.
type durableStatus struct {
	Enabled bool `json:"enabled"`
	Status  struct {
		Seq       uint64 `json:"seq"`
		Recovered uint64 `json:"recovered"`
		Durable   uint64 `json:"wal_durable_seq"`
	} `json:"status"`
}

func getDurable(t *testing.T, base string) durableStatus {
	t.Helper()
	_, body := httpGet(t, base+"/durable")
	var dp durableStatus
	if err := json.Unmarshal([]byte(body), &dp); err != nil {
		t.Fatalf("/durable: %v\n%s", err, body)
	}
	return dp
}

// waitDurable polls /durable until the sequence watermark reaches want
// and every journaled record is fsynced — the point where SIGKILL can
// no longer lose anything.
func waitDurable(t *testing.T, base string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last durableStatus
	for time.Now().Before(deadline) {
		last = getDurable(t, base)
		if last.Status.Seq >= want && last.Status.Durable == last.Status.Seq {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("durable watermark never reached %d (last %+v)", want, last)
}

// TestDaemonFeedListenRejectsRereadableFeeds pins the resume-semantics
// guard: a WAL cannot serve two recovery disciplines at once.
func TestDaemonFeedListenRejectsRereadableFeeds(t *testing.T) {
	cfg := config{
		scenario:   "rtbh",
		walDir:     t.TempDir(),
		feedListen: "127.0.0.1:0",
		shardCount: 1,
		reg:        obs.NewRegistry(),
	}
	err := runDaemon(cfg)
	if err == nil || !strings.Contains(err.Error(), "-feed-listen") {
		t.Fatalf("scenario+feed-listen+wal accepted: %v", err)
	}
}

// TestDaemonValidatesMRTBeforeOpeningAnything: a mistyped -mrt, -follow
// on a directory or on nothing, or an archive handed to -feed-listen
// fails the process while it is still only a command line — no WAL
// directory made, no listener bound, nothing a supervisor could take for
// a daemon that came up — and the archive is still there afterwards.
func TestDaemonValidatesMRTBeforeOpeningAnything(t *testing.T) {
	archive := filepath.Join(t.TempDir(), "updates.rrc00.mrt")
	if err := os.WriteFile(archive, []byte("not a socket"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]config{
		"typo":                   {mrtPath: filepath.Join(t.TempDir(), "typo")},
		"follow a dir":           {mrtPath: t.TempDir(), follow: true},
		"empty archive":          {mrtPath: t.TempDir()},
		"follow nothing":         {follow: true},
		"feed-listen an archive": {feedListen: archive},
	} {
		t.Run(name, func(t *testing.T) {
			if cfg.follow && cfg.mrtPath != "" {
				if err := os.WriteFile(filepath.Join(cfg.mrtPath, "updates.x.mrt"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cfg.addr, cfg.shardCount, cfg.reg = "127.0.0.1:0", 1, obs.NewRegistry()
			cfg.walDir = filepath.Join(t.TempDir(), "wal")
			cfg.ready = func(addr string) { t.Errorf("listening on %s before -mrt was checked", addr) }
			if err := runDaemon(cfg); err == nil {
				t.Fatal("runDaemon accepted it")
			}
			if _, err := os.Stat(cfg.walDir); !os.IsNotExist(err) {
				t.Fatalf("the store was opened before -mrt was checked (stat %s: %v)", cfg.walDir, err)
			}
			if got, err := os.ReadFile(archive); err != nil || string(got) != "not a socket" {
				t.Fatalf("the archive did not survive: %q, %v", got, err)
			}
		})
	}
}

// TestFrontendRefusesEngineFlags: a frontend runs no engine and no
// feed, so any flag but -addr on its command line is a mistake, not
// something to ignore. Each row is a flag as given; "addr" alone must
// parse.
func TestFrontendRefusesEngineFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"addr":              nil,
		"wal":               {"-wal", "d"},
		"scenario":          {"-scenario", "rtbh"},
		"mrt":               {"-mrt", "x.mrt"},
		"shards":            {"-shards", "2", "-shard-index", "1"},
		"shards=1":          {"-shards", "1"},
		"follow":            {"-follow"},
		"feed-listen":       {"-feed-listen", "127.0.0.1:0"},
		"pprof":             {"-pprof"},
		"detectors":         {"-detectors", "route-leak"},
		"dict":              {"-dict=false"},
		"engine-shards":     {"-engine-shards", "4"},
		"window":            {"-window", "1m"},
		"window-events":     {"-window-events", "8"},
		"max-alerts":        {"-max-alerts", "10"},
		"fsync":             {"-fsync", "5ms"},
		"snapshot-interval": {"-snapshot-interval", "1s"},
		"wal-segment-bytes": {"-wal-segment-bytes", "4096"},
		"scale":             {"-scale", "small"},
		"seed":              {"-seed", "3"},
	} {
		t.Run(name, func(t *testing.T) {
			fs := flag.NewFlagSet("wormwatchd", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			cfg, err := parseFlags(fs, append([]string{"-addr", "127.0.0.1:0", "-frontend", "http://127.0.0.1:1"}, args...))
			if name == "addr" {
				if err != nil || cfg.frontend == "" || cfg.addr != "127.0.0.1:0" {
					t.Fatalf("-frontend with -addr: %+v, %v", cfg, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "-frontend") || !strings.Contains(err.Error(), strings.SplitN(args[0], "=", 2)[0]) {
				t.Fatalf("parseFlags(%v): %v", args, err)
			}
		})
	}
}

// TestScenarioAlertsSameWithAndWithoutWAL: a scenario replay is lossless
// whatever it feeds, so /alerts is the same bytes through the durable
// store and straight into the engine, at any engine shard count. The
// replay's length comes from counting the tap, so "done" is a number and
// not a quiet period.
func TestScenarioAlertsSameWithAndWithoutWAL(t *testing.T) {
	var events uint64
	count := &scenario.Context{Tap: feed.Tap("count", func(feed.Event) { events++ })}
	if _, err := scenario.Run("rtbh", count); err != nil {
		t.Fatal(err)
	}
	replayed := func(cfg config) string {
		cfg.scenario = "rtbh"
		d := startDaemon(t, cfg)
		defer d.stop(t)
		base := d.url(t)
		waitStable(t, base+"/stats", func(body string) bool {
			var st watch.Stats
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Fatalf("/stats: %v\n%s", err, body)
			}
			return st.Ingested == events && st.Processed == events
		})
		_, alerts := httpGet(t, base+"/alerts")
		return alerts
	}
	want := replayed(config{walDir: t.TempDir(), fsync: 5 * time.Millisecond})
	if !strings.Contains(want, `"detector"`) {
		t.Fatalf("the -wal replay raised no alerts:\n%.300s", want)
	}
	for _, shards := range []int{1, 4} {
		if got := replayed(config{engineShards: shards}); got != want {
			t.Fatalf("-engine-shards %d without -wal serves different /alerts than the -wal run:\nwal:    %.300s\nno wal: %.300s", shards, want, got)
		}
	}
}

// TestDetectorsFlagNamesTheDictionaryPair: under the default -dict,
// -detectors may name the dictionary-aware pair, which the daemon runs
// by default anyway; the named subset runs and nothing else does.
func TestDetectorsFlagNamesTheDictionaryPair(t *testing.T) {
	var events uint64
	count := &scenario.Context{Tap: feed.Tap("count", func(feed.Event) { events++ })}
	if _, err := scenario.Run("blackhole-squatting", count); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, config{scenario: "blackhole-squatting", dict: true,
		detectors: "dict-squat, unknown-action-community"})
	defer d.stop(t)
	body := waitStable(t, d.url(t)+"/stats", func(body string) bool {
		var st watch.Stats
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/stats: %v\n%s", err, body)
		}
		return st.Ingested == events && st.Processed == events
	})
	var st watch.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.ByDetector["dict-squat"] == 0 {
		t.Fatalf("dict-squat never fired: %v", st.ByDetector)
	}
	for det := range st.ByDetector {
		if det != "dict-squat" && det != "unknown-action-community" {
			t.Fatalf("%s fired although -detectors did not name it: %v", det, st.ByDetector)
		}
	}
}

// TestDaemonFeedListenGracefulShutdown covers the live feed's clean
// path: a SIGTERM with a connection still open must unblock the stream,
// checkpoint, and exit; a restart serves the identical alerts without
// any feed connected (the WAL, not a re-read, is the source of truth).
func TestDaemonFeedListenGracefulShutdown(t *testing.T) {
	part1, _ := mrtParts(t)
	n1 := eventCount(t, part1)
	walDir := t.TempDir()
	cfg := config{
		feedListen: "127.0.0.1:0",
		walDir:     walDir,
		fsync:      2 * time.Millisecond,
	}

	d1 := startDaemon(t, cfg)
	base := d1.url(t)
	conn, err := net.Dial("tcp", d1.feed(t))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(part1); err != nil {
		t.Fatal(err)
	}
	// The connection stays OPEN: shutdown must not wait for the sender.
	waitDurable(t, base, n1)
	alerts1 := waitStable(t, base+"/alerts", func(body string) bool {
		return strings.Contains(body, `"detector"`)
	})
	d1.stop(t)

	snaps, err := filepath.Glob(filepath.Join(walDir, "snap-*.ckpt"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no checkpoint after graceful shutdown (err=%v)", err)
	}

	d2 := startDaemon(t, cfg)
	base2 := d2.url(t)
	defer d2.stop(t)
	_, alerts2 := httpGet(t, base2+"/alerts")
	if alerts2 != alerts1 {
		t.Fatalf("restart changed alerts:\nbefore: %.300s\nafter: %.300s", alerts1, alerts2)
	}
	dp := getDurable(t, base2)
	if !dp.Enabled || dp.Status.Recovered != n1 {
		t.Fatalf("recovered watermark %d, want %d", dp.Status.Recovered, n1)
	}
}

// helper is the out-of-process daemon the kill -9 test targets.
type helper struct {
	cmd  *exec.Cmd
	http string
	feed string
}

func startHelper(t *testing.T, walDir string) *helper {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "WORMWATCHD_HELPER=1", "WORMWATCHD_WAL="+walDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	h := &helper{cmd: cmd}
	t.Cleanup(func() { h.kill(t) })
	sc := bufio.NewScanner(stdout)
	for (h.http == "" || h.feed == "") && sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "ADDR":
			h.http = "http://" + f[1]
		case "FEED":
			h.feed = f[1]
		}
	}
	if h.http == "" || h.feed == "" {
		t.Fatalf("helper daemon exited before reporting its addresses")
	}
	return h
}

// kill SIGKILLs the helper — the whole point: no shutdown hook runs, no
// final checkpoint is written, userspace buffers are simply gone.
func (h *helper) kill(t *testing.T) {
	t.Helper()
	if h.cmd.ProcessState != nil {
		return // already reaped
	}
	h.cmd.Process.Kill()
	h.cmd.Wait()
}

// TestDaemonFeedListenKill9Recovery is the tentpole acceptance test for
// the non-re-readable feed: stream half the feed, SIGKILL the daemon
// process, restart on the same WAL directory, and require (a) the
// byte-identical /alerts with nothing re-fed, and (b) sequence
// numbering that continues — the second half streamed to the new life
// must land exactly after the recovered watermark and converge to the
// same state as an uninterrupted daemon fed both halves.
func TestDaemonFeedListenKill9Recovery(t *testing.T) {
	part1, part2 := mrtParts(t)
	n1, n2 := eventCount(t, part1), eventCount(t, part2)
	walDir := t.TempDir()

	h1 := startHelper(t, walDir)
	streamFeed(t, h1.feed, part1)
	waitDurable(t, h1.http, n1)
	alerts1 := waitStable(t, h1.http+"/alerts", func(body string) bool {
		return strings.Contains(body, `"detector"`)
	})
	h1.kill(t)

	// No graceful path ran: recovery is pure WAL replay.
	if snaps, _ := filepath.Glob(filepath.Join(walDir, "snap-*.ckpt")); len(snaps) != 0 {
		t.Fatalf("SIGKILL'd daemon left checkpoints %v", snaps)
	}

	h2 := startHelper(t, walDir)
	dp := getDurable(t, h2.http)
	if !dp.Enabled || dp.Status.Recovered != n1 {
		t.Fatalf("recovered watermark %d, want %d", dp.Status.Recovered, n1)
	}
	_, alerts2 := httpGet(t, h2.http+"/alerts")
	if alerts2 != alerts1 {
		t.Fatalf("kill -9 restart lost or changed alerts:\nbefore: %.300s\nafter: %.300s", alerts1, alerts2)
	}

	// The second half continues the global numbering on a new conn.
	streamFeed(t, h2.feed, part2)
	waitDurable(t, h2.http, n1+n2)
	dp = getDurable(t, h2.http)
	if dp.Status.Seq != n1+n2 {
		t.Fatalf("seq %d after part 2, want %d (numbering must continue, not restart)", dp.Status.Seq, n1+n2)
	}
	alertsFinal := waitStable(t, h2.http+"/alerts", func(string) bool { return true })
	h2.kill(t)

	// Control: an uninterrupted daemon fed both halves over sequential
	// connections reaches the same surface. Waiting for the part-1
	// watermark before the second connection mirrors the killed run's
	// ordering — two live connections would otherwise interleave.
	d := startDaemon(t, config{feedListen: "127.0.0.1:0", walDir: t.TempDir(), fsync: 2 * time.Millisecond})
	defer d.stop(t)
	base, sock := d.url(t), d.feed(t)
	streamFeed(t, sock, part1)
	waitDurable(t, base, n1)
	streamFeed(t, sock, part2)
	waitDurable(t, base, n1+n2)
	want := waitStable(t, base+"/alerts", func(body string) bool {
		return body == alertsFinal
	})
	if want != alertsFinal {
		t.Fatal("unreachable: waitStable returned a non-matching body")
	}
}
