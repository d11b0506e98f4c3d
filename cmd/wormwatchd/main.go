// Command wormwatchd is the long-running detection daemon: it feeds the
// streaming watch engine from an update source and serves the engine's
// state as JSON while ingesting (the HTTP layer lives in
// internal/serve).
//
// Endpoints:
//
//	GET /healthz      liveness + ingest counters (never cached)
//	GET /stats        engine statistics snapshot
//	GET /alerts       every alert so far, ingest order; ?detector= filters
//	GET /prefix/{p}   window state and alerts for one prefix
//	GET /durable      durability watermarks (WAL, checkpoints) + shard identity
//	GET /dict         index of ASes with inferred dictionary entries
//	GET /dict/stats   dictionary-inference engine statistics
//	GET /dict/export  the whole inferred dictionary (the scatter unit)
//	GET /dict/{asn}   one AS's inferred community dictionary
//	GET /metrics      Prometheus text exposition (watch, semantics,
//	                  simnet, WAL, HTTP-layer series)
//	GET /debug/pprof/ Go profiling endpoints (only with -pprof)
//
// Unless -dict=false, every ingested event also feeds a semantics
// dictionary-inference engine; its snapshots power the /dict endpoints
// and the dictionary-aware detectors (dict-squat,
// unknown-action-community), whose dictionary refreshes on the flush
// heartbeat.
//
// Feed modes (combine freely; each runs on its own goroutine):
//
//	-scenario rtbh      replay a registered attack scenario through a
//	                    live engine tap (the whole simulated world is
//	                    observed, world construction included)
//	-mrt file|dir       stream MRT update archives (a directory means
//	                    every updates.*.mrt under it)
//	-follow             with -mrt FILE: tail the file as it grows
//	-feed-listen A      accept live MRT update streams on address A
//	                    (host:port, or a unix socket path containing
//	                    "/"); every connection feeds the engine
//
// Durability (-wal DIR) journals every ingested event to a segmented
// write-ahead log and checkpoints engine state on -snapshot-interval;
// a daemon killed mid-feed restarts into restore-from-snapshot plus
// replay of the WAL tail, with zero loss of durable alerts. Feeds are
// lossless with or without -wal: a feed that outruns the engine waits
// for it (back-pressure), and no event is ever dropped.
//
// -scenario and -mrt are re-readable: a restarted daemon re-reads them
// from the beginning and resume-skips everything recovery already
// applied. A -feed-listen stream is not — the bytes are gone once
// read — so with -wal the WAL alone is the recovery source, sequence
// numbering continues where the previous life stopped, and combining
// -feed-listen with a re-readable feed under -wal is refused.
//
// Sharding splits the prefix space across N processes:
//
//	wormwatchd -shards 3 -shard-index 0 -addr :8581 -scenario rtbh -wal wal0 &
//	wormwatchd -shards 3 -shard-index 1 -addr :8582 -scenario rtbh -wal wal1 &
//	wormwatchd -shards 3 -shard-index 2 -addr :8583 -scenario rtbh -wal wal2 &
//	wormwatchd -frontend http://:8581,http://:8582,http://:8583 -addr :8580
//
// Every shard consumes the full feed and assigns identical global
// sequence numbers, but journals and processes only its prefix range;
// the -frontend process scatter-gathers /alerts, /prefix/{p}, /dict,
// and /stats, merging version-keyed shard snapshots into responses
// byte-identical to a single-process daemon's (dictionary detectors
// see per-shard partial dictionaries; run -dict=false for exact
// cross-shard alert equality).
//
// Each -frontend element may list "|"-separated replica URLs for its
// prefix range (independent shard processes over the same feed slice):
// the frontend sticks to a healthy replica, fails over on fetch errors
// and upstream 5xx (counted by frontend_failover_total), and a range
// degrades /healthz only when every one of its replicas is down.
//
// Responses are rendered once per engine change and then served from a
// cached snapshot, so concurrent readers cost one JSON encoding, not
// one per request.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	_ "bgpworms/internal/attack" // registers the builtin scenarios
	"bgpworms/internal/core"
	"bgpworms/internal/durable"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/mrt"
	"bgpworms/internal/obs"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/serve"
	"bgpworms/internal/watch"
)

// config is the daemon's parsed command line, shaped so tests can run
// the same code path in-process (runDaemon / runFrontend) without a
// flag.Parse.
type config struct {
	addr     string
	scenario string
	scale    string
	seed     int64
	mrtPath  string
	follow   bool
	// feedListen accepts live MRT streams on a socket — the one feed
	// that cannot be re-read after a crash.
	feedListen string

	engineShards int
	window       time.Duration
	windowEvents int
	maxAlerts    int
	detectors    string
	dict         bool
	pprofOn      bool

	walDir       string
	fsync        time.Duration
	snapInterval time.Duration
	walSegment   int64

	shardCount int
	shardIndex int
	frontend   string

	// reg is what /metrics renders besides the engines' own series:
	// obs.Default, where the libraries' process-wide instruments live.
	// Tests may inject a private registry, which holds only the HTTP
	// layer's.
	reg *obs.Registry
	// signals overrides OS signal delivery in tests; nil installs the
	// real SIGINT/SIGTERM handler.
	signals chan os.Signal
	// ready, when set, receives the bound listen address once the HTTP
	// listener is up (tests bind :0).
	ready func(addr string)
	// feedReady mirrors ready for the -feed-listen socket.
	feedReady func(addr string)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8571", "HTTP listen address")
	flag.StringVar(&cfg.scenario, "scenario", "", "replay a registered attack scenario through the engine")
	flag.StringVar(&cfg.scale, "scale", "", "gen preset for -scenario (tiny, small, medium, large, internet; default tiny)")
	flag.Int64Var(&cfg.seed, "seed", 0, "generator seed for -scenario (default 1)")
	flag.StringVar(&cfg.mrtPath, "mrt", "", "MRT update archive to stream (file, or dir of updates.*.mrt)")
	flag.BoolVar(&cfg.follow, "follow", false, "with -mrt FILE: keep reading as the file grows")
	flag.StringVar(&cfg.feedListen, "feed-listen", "", "accept live MRT update streams on this address (host:port, or a unix socket path containing \"/\"); not re-readable — with -wal, recovery replays the WAL alone")
	flag.IntVar(&cfg.engineShards, "engine-shards", 0, "in-process engine prefix shards (0 = one per CPU)")
	flag.DurationVar(&cfg.window, "window", 0, "detection window horizon (default 15m)")
	flag.IntVar(&cfg.windowEvents, "window-events", 0, "per-prefix ring capacity (default 32)")
	flag.IntVar(&cfg.maxAlerts, "max-alerts", 0, "retained alert cap (0 = default 100000, negative = unlimited)")
	flag.StringVar(&cfg.detectors, "detectors", "", "comma-separated detector subset (default: all registered)")
	flag.BoolVar(&cfg.dict, "dict", true, "infer per-AS community dictionaries and enable the dictionary-aware detectors")
	flag.BoolVar(&cfg.pprofOn, "pprof", false, "serve Go profiling endpoints under /debug/pprof/")
	flag.StringVar(&cfg.walDir, "wal", "", "durability directory: journal events to a WAL and checkpoint engine state (empty = in-memory only)")
	flag.DurationVar(&cfg.fsync, "fsync", 0, "WAL group-commit fsync interval (default 50ms; negative disables fsync)")
	flag.DurationVar(&cfg.snapInterval, "snapshot-interval", 30*time.Second, "checkpoint cadence with -wal (0 disables automatic checkpoints)")
	flag.Int64Var(&cfg.walSegment, "wal-segment-bytes", 0, "WAL segment rotation threshold (default 64MiB)")
	flag.IntVar(&cfg.shardCount, "shards", 1, "total shard processes in the deployment (prefix-range split)")
	flag.IntVar(&cfg.shardIndex, "shard-index", 0, "this process's shard index in [0, -shards)")
	flag.StringVar(&cfg.frontend, "frontend", "", "run as a scatter-gather frontend over these comma-separated shard base URLs (no engines, no feeds)")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every input is a flag, and flags after it were not read (see -h)", flag.Arg(0)))
	}
	cfg.reg = obs.Default

	var err error
	if cfg.frontend != "" {
		err = runFrontend(cfg)
	} else {
		err = runDaemon(cfg)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wormwatchd:", err)
	os.Exit(1)
}

// forceExitAfter bounds a graceful shutdown whose feeds cannot be
// interrupted mid-item.
const forceExitAfter = 15 * time.Second

// listen binds cfg.addr and reports the concrete address to any test
// hook.
func listen(cfg *config) (net.Listener, error) {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	if cfg.ready != nil {
		cfg.ready(ln.Addr().String())
	}
	return ln, nil
}

// stopSignals returns the channel shutdown waits on: the test override,
// or a real SIGINT/SIGTERM subscription.
func stopSignals(cfg *config) chan os.Signal {
	if cfg.signals != nil {
		return cfg.signals
	}
	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	return stop
}

// runFrontend serves the scatter-gather tier: no engines, no feeds,
// just the shard URL list and the merge logic in internal/serve.
func runFrontend(cfg config) error {
	if cfg.scenario != "" || cfg.mrtPath != "" || cfg.follow || cfg.feedListen != "" ||
		cfg.walDir != "" || cfg.shardCount != 1 || cfg.shardIndex != 0 {
		return fmt.Errorf("-frontend runs no engine: it takes no feed (-scenario, -mrt, -follow, -feed-listen), no -wal and no -shards/-shard-index")
	}
	urls := strings.Split(cfg.frontend, ",")
	for i := range urls {
		urls[i] = strings.TrimSpace(urls[i])
		for _, r := range strings.Split(urls[i], "|") {
			// A URL that cannot be fetched would fail every scatter and
			// degrade /healthz for the frontend's whole life.
			if u, err := url.Parse(strings.TrimSpace(r)); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return fmt.Errorf("-frontend element %q is not an http:// or https:// URL with a host", r)
			}
		}
	}
	stop := stopSignals(&cfg) // before the listener, as in runDaemon
	ln, err := listen(&cfg)
	if err != nil {
		return err
	}
	fe := serve.NewFrontend(urls, cfg.reg)
	httpSrv := &http.Server{Handler: fe.Handler()}
	errs := make(chan error, 1)
	go func() {
		log.Printf("wormwatchd: frontend for %d shards listening on http://%s", len(urls), ln.Addr())
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errs <- err
		}
	}()
	select {
	case err := <-errs:
		return err
	case <-stop:
	}
	log.Printf("wormwatchd: frontend shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(ctx)
}

// runDaemon is the whole shard (or standalone) daemon life cycle:
// build engines, recover durable state, start feeds, serve, and on
// SIGINT/SIGTERM drain the feeds, flush the WAL, write a final
// checkpoint, and close the listener.
func runDaemon(cfg config) error {
	// Validate feed parameters before the listener comes up, so a typo
	// fails the process instead of leaving a healthy-looking daemon
	// with no feed.
	if cfg.scenario != "" {
		if _, ok := scenario.Get(cfg.scenario); !ok {
			return fmt.Errorf("unknown scenario %q (have %v)", cfg.scenario, scenario.Names())
		}
	}
	scenarioGen, err := scenario.GenParams(cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	if cfg.follow && cfg.mrtPath == "" {
		return fmt.Errorf("-follow tails the file named by -mrt; there is no -mrt")
	}
	var mrtPaths []string
	if cfg.mrtPath != "" {
		var single bool
		if mrtPaths, single, err = core.UpdateArchives(cfg.mrtPath); err != nil {
			return err
		}
		if cfg.follow && !single {
			return fmt.Errorf("-follow needs a single MRT file, not a directory")
		}
	}
	if cfg.shardCount < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", cfg.shardCount)
	}
	if cfg.shardIndex < 0 || cfg.shardIndex >= cfg.shardCount {
		return fmt.Errorf("-shard-index %d outside [0, %d)", cfg.shardIndex, cfg.shardCount)
	}
	if cfg.shardCount > 1 && cfg.walDir == "" {
		return fmt.Errorf("sharded mode needs -wal (shards must journal their slice of the feed)")
	}
	if cfg.feedListen != "" && cfg.walDir != "" && (cfg.scenario != "" || cfg.mrtPath != "") {
		return fmt.Errorf("-feed-listen cannot share -wal with -scenario/-mrt: re-readable feeds resume by re-reading and skipping, the live feed must resume from the WAL alone")
	}
	feedNetwork := "tcp"
	if strings.Contains(cfg.feedListen, "/") {
		feedNetwork = "unix"
		if fi, err := os.Lstat(cfg.feedListen); err == nil && fi.Mode()&os.ModeSocket == 0 {
			return fmt.Errorf("-feed-listen %s exists and is not a socket (an MRT archive goes to -mrt)", cfg.feedListen)
		}
		// Whatever is left there is the socket of a previous life killed hard.
		os.Remove(cfg.feedListen)
	}

	wcfg := watch.Config{
		Shards: cfg.engineShards, Window: cfg.window, WindowEvents: cfg.windowEvents,
		MaxAlerts: cfg.maxAlerts,
	}
	// The dictionary stack: a semantics engine whose partial
	// dictionaries the watch shards fold into, and a holder the
	// detectors read — refreshed on the flush heartbeat, so detection
	// always consults a recent frozen snapshot.
	var sem *semantics.Engine
	var holder *semantics.Holder
	if cfg.dict {
		sem = semantics.NewEngine(semantics.Config{})
		holder = &semantics.Holder{}
		wcfg.Semantics = sem
		wcfg.Dict = holder
	}
	if cfg.detectors != "" {
		for _, name := range strings.Split(cfg.detectors, ",") {
			d, ok := watch.LookupDetector(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown detector %q (have %v)", name, watch.DetectorNames())
			}
			wcfg.Detectors = append(wcfg.Detectors, d)
		}
		// An explicit -detectors subset is respected verbatim: the
		// dictionary-aware pair joins only the default set.
	}
	eng := watch.NewEngine(wcfg)
	defer eng.Close()
	if sem != nil {
		defer sem.Close()
	}

	// The durable store sits between the feeds and the engine: it
	// assigns global sequence numbers, journals owned events, and (in
	// sharded mode) filters to this shard's prefix range. The
	// re-readable feeds (-scenario, -mrt) re-read from their beginning
	// on restart, so the store resumes by skipping what recovery
	// already applied; a -feed-listen stream cannot be re-read, so
	// there the WAL alone is the recovery source and sequence
	// numbering continues from the recovered watermark.
	var store *durable.Store
	sink := eng.Ingest
	if cfg.walDir != "" {
		opts := durable.Options{
			Dir:              cfg.walDir,
			FsyncInterval:    cfg.fsync,
			SegmentBytes:     cfg.walSegment,
			SnapshotInterval: cfg.snapInterval,
			ResumeSkip:       cfg.feedListen == "",
		}
		if cfg.shardCount > 1 {
			opts.Owner = serve.NewRangeMap(cfg.shardCount).OwnerFunc(cfg.shardIndex)
		}
		var recInfo durable.Recovery
		store, recInfo, err = durable.Open(eng, sem, opts)
		if err != nil {
			return err
		}
		// For every early return below; after the shutdown path's own
		// Close this one finds the store closed and does nothing.
		defer store.Close()
		sink = store.Sink()
		log.Printf("wormwatchd: durable: recovered seq %d (checkpoint %d + %d WAL records, %d torn bytes)",
			recInfo.Seq, recInfo.CheckpointSeq, recInfo.Replayed, recInfo.TornBytes)
	}

	srv := serve.New(serve.Options{
		Watch: eng, Semantics: sem, Holder: holder, Registry: cfg.reg,
		Store: store, ShardIndex: cfg.shardIndex, ShardCount: cfg.shardCount,
		Pprof: cfg.pprofOn,
	})
	// Before the listener is up: whoever reads "listening" may send
	// SIGTERM at once and must get the graceful path, not the default.
	stop := stopSignals(&cfg)
	ln, err := listen(&cfg)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		log.Printf("wormwatchd: shard %d/%d listening on http://%s", cfg.shardIndex, cfg.shardCount, ln.Addr())
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}()

	// stopping flips at the first shutdown signal; feed loops check it
	// at their boundaries.
	var stopping atomic.Bool

	var feeds sync.WaitGroup
	if cfg.scenario != "" {
		feeds.Add(1)
		go func() {
			defer feeds.Done()
			replayScenario(eng, sink, cfg.scenario, scenarioGen)
		}()
	}
	// The tail reader is created here, before the feed goroutine starts,
	// so shutdown can always reach Stop — otherwise a signal racing feed
	// startup could leave the MRT stream blocked in the tail forever.
	var tail *mrt.TailReader
	if mrtPaths != nil {
		if cfg.follow {
			f, err := os.Open(mrtPaths[0])
			if err != nil {
				return err
			}
			defer f.Close()
			tail = mrt.NewTailReader(f, 200*time.Millisecond)
		}
		feeds.Add(1)
		go func() {
			defer feeds.Done()
			for _, p := range mrtPaths {
				if stopping.Load() {
					return // shutdown between archives
				}
				src := "mrt:" + filepath.Base(p)
				var n int
				var err error
				if tail != nil {
					n, err = feed.StreamMRT(feed.DrainReader(tail, eng.Dispatch), src, sink)
				} else {
					f, err2 := os.Open(p)
					if err2 != nil {
						log.Printf("wormwatchd: skipping %s: %v", p, err2)
						continue
					}
					n, err = feed.StreamMRT(f, src, sink)
					f.Close()
				}
				if err != nil {
					// Keep whatever decoded before the error and move on
					// to the next archive; the log is the record of the
					// partial ingest.
					log.Printf("wormwatchd: %s: %d events, then: %v", p, n, err)
					continue
				}
				log.Printf("wormwatchd: %s: %d events ingested", p, n)
			}
			eng.Flush()
		}()
	}

	// The live feed: accept raw MRT byte streams on a socket, one
	// goroutine per connection. Connections are tracked so shutdown can
	// unblock their reads — a live stream has no item boundary to drain
	// to, and whatever was journaled by then is exactly what recovery
	// will serve.
	var feedLn net.Listener
	var feedConns connSet
	if cfg.feedListen != "" {
		feedLn, err = net.Listen(feedNetwork, cfg.feedListen)
		if err != nil {
			return err
		}
		if cfg.feedReady != nil {
			cfg.feedReady(feedLn.Addr().String())
		}
		log.Printf("wormwatchd: live feed listening on %s://%s", feedNetwork, feedLn.Addr())
		feeds.Add(1)
		go func() {
			defer feeds.Done()
			for {
				conn, err := feedLn.Accept()
				if err != nil {
					return // listener closed by shutdown
				}
				if !feedConns.add(conn) {
					conn.Close() // raced shutdown
					continue
				}
				feeds.Add(1)
				go func() {
					defer feeds.Done()
					defer feedConns.remove(conn)
					// The source label is constant across connections so a
					// reconnecting sender produces the same event bytes a
					// WAL replay would.
					n, err := feed.StreamMRT(feed.DrainReader(conn, eng.Dispatch), "mrt:feed", sink)
					if err != nil && !stopping.Load() {
						log.Printf("wormwatchd: live feed: %d events, then: %v", n, err)
					} else {
						log.Printf("wormwatchd: live feed: %d events ingested", n)
					}
					eng.Flush()
				}()
			}
		}()
	}

	// The socket and -follow feeds dispatch their own partial batches
	// the moment they drain (feed.DrainReader). The heartbeat is for what
	// has no read boundary to hang that on — a scenario tap mid-replay —
	// and for refreshing the detectors' dictionary.
	flusherDone := make(chan struct{})
	feeds.Add(1)
	go func() {
		defer feeds.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-flusherDone:
				return
			case <-tick.C:
				eng.Flush()
				if sem != nil {
					// Snapshot caches by version: a quiet engine makes
					// this a no-op, a busy one refreshes the detectors'
					// dictionary.
					holder.Store(sem.Snapshot())
				}
			}
		}
	}()

	<-stop
	log.Printf("wormwatchd: shutting down (again or wait %s to force)", forceExitAfter)
	stopping.Store(true)
	if tail != nil {
		tail.Stop()
	}
	if feedLn != nil {
		// Unblock the accept loop, then every in-flight read.
		feedLn.Close()
		feedConns.closeAll()
	}
	close(flusherDone)
	// Graceful drain can only stop feeds at their boundaries (a scenario
	// replay or a single large archive runs to completion); a second
	// signal or the deadline forces exit so supervisors never hang on
	// us. A clean drain cancels the watchdog.
	drained := make(chan struct{})
	go func() {
		deadline := time.After(forceExitAfter)
		select {
		case <-stop:
		case <-deadline:
		case <-drained:
			return
		}
		log.Printf("wormwatchd: forced exit with feeds still running")
		os.Exit(1)
	}()
	feeds.Wait()
	close(drained)
	eng.Flush()
	if store != nil {
		// Final checkpoint + WAL fsync: the next start restores instead
		// of replaying the whole feed.
		if err := store.Close(); err != nil {
			log.Printf("wormwatchd: durable close: %v", err)
		} else {
			log.Printf("wormwatchd: durable: final checkpoint at seq %d", store.Status().SnapshotSeq)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(ctx)
}

// replayScenario drives a registered scenario through sink — the same
// lossless sink every other feed uses — and logs the Table-3 outcome.
func replayScenario(eng *watch.Engine, sink func(feed.Event), name string, params gen.Params) {
	ctx := &scenario.Context{Gen: params, Tap: feed.Tap("scenario:"+name, sink)}
	res, err := scenario.Run(name, ctx)
	if err != nil {
		log.Printf("wormwatchd: scenario %s: %v", name, err)
		return
	}
	eng.Flush()
	st := eng.Stats()
	log.Printf("wormwatchd: scenario %s success=%v; %d events, %d alerts",
		name, res.Success, st.Ingested, st.Alerts)
}

// connSet tracks live feed connections so shutdown can unblock their
// reads; add refuses new connections once closeAll has run.
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func (c *connSet) add(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if c.conns == nil {
		c.conns = make(map[net.Conn]struct{})
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *connSet) remove(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
}

func (c *connSet) closeAll() {
	c.mu.Lock()
	c.closed = true
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
}
