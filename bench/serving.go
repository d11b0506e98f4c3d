package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"bgpworms/bench/feed"
	"bgpworms/bench/stats"
	"bgpworms/internal/durable"
	"bgpworms/internal/obs"
	"bgpworms/internal/serve"
	"bgpworms/internal/watch"
)

// The load generator is one process with two goroutines — the feeder
// (the workload's own goroutine) and one querier — so on the two-core
// sizing machine it never out-numbers the cores it shares with the SUT.

const (
	// chunkRecords is the closed-loop write size: big enough that the
	// generator spends its time in write(2), small enough to fit the
	// socket buffer a few times over.
	chunkRecords = 512
	// tick is the open-loop schedule's grain.
	tick = time.Millisecond
	// probesPerSecond fixes probe spacing at rate/probesPerSecond records.
	probesPerSecond = 100
	// probeLimit is when an unseen probe stops being waited for and counts
	// as a failed operation.
	probeLimit = 5 * time.Second
	// latencyLimitMS and onSchedule decide whether a paced step was
	// sustained. The latency limit lets one checkpoint stall (1.0-1.5 s on
	// the sizing machine) through and stops a stall twice as long. The
	// backlog test is the generator's median lag: a backlog a stall built
	// and the shards then drained leaves most ticks on time, one that only
	// grows makes the median tick half the final backlog late.
	latencyLimitMS = 2500.0
	onSchedule     = 100 * time.Millisecond
	// abandonAfter ends a paced step whose generator is this far behind:
	// the rung is beyond the fleet, and sending the rest of it late would
	// only push probes past probeLimit.
	abandonAfter = 2500 * time.Millisecond
)

// stepSpec is one rung of the fixed rate ladder.
type stepSpec struct {
	name     string
	rate     int // events per second
	segments int
}

var ladder = []stepSpec{{"live", 5_000, 1}, {"busy", 100_000, 3}, {"peak", 250_000, 1}}

// smokeLadder keeps the same three regimes at rates a loaded CI machine
// sustains while it runs other packages' tests.
var smokeLadder = []stepSpec{{"live", 2_000, 1}, {"busy", 20_000, 3}, {"peak", 50_000, 1}}

// durableStatus is the part of /durable the harness reads.
type durableStatus struct {
	Status durable.Status `json:"status"`
}

// loadgen feeds one stream to every shard's socket and remembers how
// much it sent.
type loadgen struct {
	f      *feed.Feed
	stream *feed.Stream
	shards []*child
	conns  []net.Conn
	buf    []byte
}

func newLoadgen(f *feed.Feed, shards []*child) (*loadgen, error) {
	g := &loadgen{f: f, stream: f.NewStream(), shards: shards}
	for _, s := range shards {
		c, err := net.Dial("unix", s.feed)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

func (g *loadgen) close() {
	for _, c := range g.conns {
		c.Close()
	}
	g.conns = nil
}

func (g *loadgen) write() error {
	for _, c := range g.conns {
		if _, err := c.Write(g.buf); err != nil {
			return err
		}
	}
	return nil
}

// ingested reports whether every shard has consumed every event sent.
func (g *loadgen) ingested() (bool, error) {
	for _, s := range g.shards {
		st, err := getJSON[durableStatus](s.http + "/durable")
		if err != nil {
			return false, err
		}
		if st.Status.Err != "" {
			return false, fmt.Errorf("%s: durable store: %s", s.name, st.Status.Err)
		}
		if st.Status.Seq < uint64(g.stream.Events()) {
			return false, nil
		}
	}
	return true, nil
}

// backlog is how many sent events the slowest shard has yet to consume.
func (g *loadgen) backlog() (int, error) {
	worst := 0
	for _, s := range g.shards {
		st, err := getJSON[durableStatus](s.http + "/durable")
		if err != nil {
			return 0, err
		}
		if b := g.stream.Events() - int(st.Status.Seq); b > worst {
			worst = b
		}
	}
	return worst, nil
}

// send writes the next k feed records to every shard.
func (g *loadgen) send(k, probeEvery int) error {
	g.buf = g.stream.Append(g.buf[:0], k, probeEvery, nil)
	return g.write()
}

// settle waits until every shard has ingested everything sent and
// returns the time since start.
func (g *loadgen) settle(ctx context.Context, start time.Time) (time.Duration, error) {
	if err := waitFor(ctx, 60*time.Second, "ingest of a burst", g.ingested); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// burst is the closed loop: n records as fast as the sockets accept
// them, timed from the first byte until every shard has ingested all of
// them.
func (g *loadgen) burst(ctx context.Context, n, probeEvery int) (time.Duration, error) {
	start := time.Now()
	for n > 0 {
		k := min(n, chunkRecords)
		if err := g.send(k, probeEvery); err != nil {
			return 0, err
		}
		n -= k
	}
	return g.settle(ctx, start)
}

// burstFor is the closed loop by the clock: records as fast as the
// sockets accept them for d, then the wait for the last to be ingested.
// It returns how many it sent and how long all of it took.
func (g *loadgen) burstFor(ctx context.Context, d time.Duration) (int, time.Duration, error) {
	start, n := time.Now(), 0
	for time.Since(start) < d {
		if err := g.send(chunkRecords, 0); err != nil {
			return 0, 0, err
		}
		n += chunkRecords
	}
	took, err := g.settle(ctx, start)
	return n, took, err
}

// paced is the open loop: rate events per second for d on a 1 ms
// schedule that never waits for the SUT, a probe every
// rate/probesPerSecond records, each queued for its owner shard with the
// tick's due time. It returns the generator's lag per tick, whether it
// fell so far behind that the step was abandoned, and the backlog the
// instant the last tick was written.
func (g *loadgen) paced(rate int, d time.Duration, q *stats.ProbeQueues) (lagMS []float64, abandoned bool, backlogEvents int, err error) {
	perTick := rate / int(time.Second/tick)
	probeEvery := rate / probesPerSecond
	lagMS, abandoned, err = stats.OpenLoop(time.Now(), tick, int(d/tick), abandonAfter, func(_ int, due time.Time) error {
		g.buf = g.stream.Append(g.buf[:0], perTick, probeEvery, func(id int) {
			q.Push(feed.ProbeOwner(id), stats.Probe{ID: id, Due: due})
		})
		return g.write()
	})
	if err != nil {
		return lagMS, abandoned, 0, err
	}
	backlogEvents, err = g.backlog()
	return lagMS, abandoned, backlogEvents, err
}

// querier is the one query goroutine. It polls the oldest outstanding
// probe of each shard and, every gap, issues the next query of the
// light mix; gap 0 means back to back.
type querier struct {
	f     *feed.Feed
	base  string
	light []string
	gap   time.Duration
	q     *stats.ProbeQueues // nil when the workload has no probes

	mu         sync.Mutex
	latencyMS  []float64
	byPath     map[string][]float64
	requests   int64
	unexpected int64
	firstBad   string

	stop chan struct{}
	done chan struct{}
}

func startQuerier(f *feed.Feed, base string, light []string, gap time.Duration, q *stats.ProbeQueues) *querier {
	qr := &querier{f: f, base: base, light: light, gap: gap, q: q, byPath: map[string][]float64{}, stop: make(chan struct{}), done: make(chan struct{})}
	go qr.run()
	return qr
}

func (qr *querier) bad(url string, status int, err error) {
	qr.mu.Lock()
	qr.unexpected++
	if qr.firstBad == "" {
		qr.firstBad = fmt.Sprintf("GET %s: status %d, err %v", url, status, err)
	}
	qr.mu.Unlock()
}

func (qr *querier) run() {
	defer close(qr.done)
	next, last := 0, time.Time{}
	for {
		select {
		case <-qr.stop:
			return
		default:
		}
		progress := false
		if qr.q != nil {
			progress = qr.q.Poll(probeLimit, func(_ int, p stats.Probe) bool {
				url := qr.base + "/prefix/" + qr.f.ProbePrefix(p.ID).String()
				status, _, err := get(url)
				qr.mu.Lock()
				qr.requests++
				qr.mu.Unlock()
				if err != nil || (status != http.StatusOK && status != http.StatusNotFound) {
					qr.bad(url, status, err)
				}
				return status == http.StatusOK
			})
		}
		if time.Since(last) >= qr.gap {
			path := qr.light[next%len(qr.light)]
			next++
			last = time.Now()
			status, _, err := get(qr.base + path)
			ms := stats.Milliseconds(time.Since(last))
			qr.mu.Lock()
			qr.requests++
			qr.latencyMS = append(qr.latencyMS, ms)
			qr.byPath[path] = append(qr.byPath[path], ms)
			qr.mu.Unlock()
			// A prefix the feed has not reached yet is an answer, not a fault.
			if err != nil || (status != http.StatusOK && !(status == http.StatusNotFound && strings.HasPrefix(path, "/prefix/"))) {
				qr.bad(qr.base+path, status, err)
			}
			progress = true
		}
		if !progress {
			time.Sleep(tick)
		}
	}
}

// drain returns the light-mix latencies gathered since the last drain.
func (qr *querier) drain() []float64 {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	out := qr.latencyMS
	qr.latencyMS = nil
	return out
}

func (qr *querier) halt() { close(qr.stop); <-qr.done }

// account folds the querier's request counts into the result.
func (qr *querier) account(res *Result) {
	res.Attempted += qr.requests
	if qr.unexpected > 0 {
		res.fail(qr.unexpected, "%d unexpected HTTP answers, first: %s", qr.unexpected, qr.firstBad)
	}
}

// reference is the in-process engine fed the same bytes as the SUT: the
// oracle for alert counts and, through the same HTTP layer, for the
// /alerts body.
type reference struct {
	eng    *watch.Engine
	stream *feed.Stream
	buf    []byte
}

func newReference(f *feed.Feed) *reference {
	return &reference{eng: watch.NewEngine(watch.Config{}), stream: f.NewStream()}
}

// feed pushes the next n probe-free records — what a closed-loop burst
// of n sends — through the daemon's own decoder into the engine.
func (ref *reference) feed(n int) error {
	for n > 0 {
		k := min(n, 1<<16)
		ref.buf = ref.stream.Append(ref.buf[:0], k, 0, nil)
		if _, err := watch.StreamMRT(bytes.NewReader(ref.buf), "mrt:feed", ref.eng.Ingest); err != nil {
			return err
		}
		n -= k
	}
	ref.eng.Flush()
	return nil
}

// alertsBody renders /alerts exactly as a single daemon would.
func (ref *reference) alertsBody() []byte {
	srv := serve.New(serve.Options{Watch: ref.eng, Registry: obs.NewRegistry()})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/alerts", nil))
	return rec.Body.Bytes()
}

// dictFree are the detectors whose alerts depend on the event stream
// alone; the dictionary-aware pair also depends on heartbeat timing.
var dictFree = []string{"blackhole-onset", "community-squat", "prop-distance", "route-leak"}

func compareDetectors(res *Result, when string, got, want map[string]uint64) {
	res.Attempted += int64(len(dictFree))
	for _, d := range dictFree {
		if got[d] != want[d] {
			res.fail(1, "%s: %s raised %d alerts, the reference engine %d", when, d, got[d], want[d])
		}
	}
}

// settled waits for a daemon's engine to have applied every one of n
// events (the 500 ms heartbeat flushes partial batches).
func settled(ctx context.Context, statsURL string, n int) (watch.Stats, error) {
	var st watch.Stats
	err := waitFor(ctx, 10*time.Second, "engines applying every ingested event", func() (bool, error) {
		var err error
		st, err = getJSON[watch.Stats](statsURL)
		if err != nil {
			return false, err
		}
		return st.Ingested == uint64(n) && st.Processed+st.Dropped == st.Ingested, nil
	})
	return st, err
}

// serveSaturate drives one default-flag daemon flat out, then kills it
// and times recovery.
func serveSaturate(ctx context.Context, r *rig, p plan, seed int64, res *Result) error {
	spec := daemonSpec{name: "single", feed: true}
	var f *feed.Feed
	var d *child
	if err := timeSetup(p, res, func() (err error) {
		if d != nil {
			d.kill()
		}
		if err = r.build("wormwatchd"); err != nil {
			return err
		}
		if f, err = feed.Build(feedScale, seed); err != nil {
			return err
		}
		d, err = r.startDaemon(spec)
		return err
	}); err != nil {
		return err
	}
	res.Machine.WALFS = fsType(d.dir)

	// Three timed bursts of 48K events per second of budget each: at the
	// sizing machine's 320K ev/s the three take about half the budget,
	// and reference check and recovery the rest.
	perBurst := p.seconds * 48_000
	if p.smoke {
		perBurst = len(f.Recs) / 3
	}
	res.Config = map[string]string{
		"daemon":  "wormwatchd -feed-listen <unix> -wal <dir> -addr 127.0.0.1:0 (defaults: dict on, fsync 50ms, snapshot 30s)",
		"bursts":  fmt.Sprintf("3 x %d events, closed loop", perBurst),
		"feed":    fmt.Sprintf("%s world, feed seed %d: %d records/loop, %d prefixes x %d universes", f.Scale, seed, len(f.Recs), f.Prefixes, feed.Universes),
		"queries": "/stats, /prefix/{tracked}, /alerts?detector=blackhole-onset back to back",
	}
	g, err := newLoadgen(f, []*child{d})
	if err != nil {
		return err
	}
	defer g.close()
	light := []string{"/stats", "/prefix/" + f.Tracked[0].String(), "/alerts?detector=blackhole-onset"}

	qr := startQuerier(f, d.http, light, 0, nil)
	var rates []float64
	for i := 0; i < 3; i++ {
		took, err := g.burst(ctx, perBurst, 0)
		if err != nil {
			qr.halt()
			return err
		}
		rates = append(rates, float64(perBurst)/took.Seconds())
	}
	qr.halt()
	sent := g.stream.Events()
	res.Attempted += int64(sent)
	qr.account(res)
	for _, path := range light {
		res.count("loadgen.query_p50_ms "+path, stats.Percentile(qr.byPath[path], 50), "ms")
	}
	lat := qr.drain()
	qt := stats.Summarize(lat, 99)
	res.set("ingest_events_per_s", stats.Median(rates), repeats(rates))
	res.set("query_p50_ms", qt.P50, samples(qt.N, 50))
	res.set("query_p99_ms", qt.Tail, samples(qt.N, qt.TailPct))

	// Correct before the kill: nothing lost, nothing shed, and the same
	// alerts an engine fed these bytes in-process raises.
	ref := newReference(f)
	if err := ref.feed(3 * perBurst); err != nil {
		return err
	}
	want := ref.eng.Stats().ByDetector
	st, err := settled(ctx, d.http+"/stats", sent)
	if err != nil {
		res.fail(int64(sent), "before kill: %v (ingested %d of %d sent)", err, st.Ingested, sent)
	}
	if st.Dropped > 0 {
		res.fail(int64(st.Dropped), "before kill: %d events dropped", st.Dropped)
	}
	compareDetectors(res, "before kill", st.ByDetector, want)
	res.count("watch.alerts", float64(st.Alerts), "count")
	res.count("watch.tracked_prefixes", float64(st.TrackedPrefixes), "count")

	// The WAL's group commit must have reached the kernel, or kill -9
	// legitimately loses the last 50 ms.
	if err := waitFor(ctx, 5*time.Second, "WAL group commit", func() (bool, error) {
		ds, err := getJSON[durableStatus](d.http + "/durable")
		return ds.Status.WALDurableSeq == uint64(sent), err
	}); err != nil {
		return err
	}
	if err := scrapeSUT(res, []*child{d}, nil); err != nil {
		return err
	}

	killed := time.Now()
	life1 := d.kill()
	d2, err := r.startDaemon(spec)
	if err != nil {
		return fmt.Errorf("restart on the same WAL: %w", err)
	}
	recovery := time.Since(killed)
	ds, err := getJSON[durableStatus](d2.http + "/durable")
	if err != nil {
		return err
	}
	res.Attempted++
	if ds.Status.Recovered != uint64(sent) {
		res.fail(1, "recovered seq %d, sent %d", ds.Status.Recovered, sent)
	}
	st2, err := getJSON[watch.Stats](d2.http + "/stats")
	if err != nil {
		return err
	}
	compareDetectors(res, "after recovery", st2.ByDetector, want)
	life2 := d2.kill()

	res.set("recovery_s", recovery.Seconds())
	res.set("cpu_s", (life1.CPU + life2.CPU).Seconds())
	res.set("peak_rss_mb", max(life1.RSSMiB, life2.RSSMiB))
	return nil
}

// scrapeSUT reads the counters the daemons already export, at the end of
// a run: counts at the layer boundaries, not timings.
func scrapeSUT(res *Result, shards []*child, front *child) error {
	var fsyncs, fsyncS, snaps, dropped, reqs, pending float64
	for _, s := range shards {
		m, err := scrape(s.http)
		if err != nil {
			return err
		}
		fsyncs += m["wal_fsync_seconds_count"]
		fsyncS += m["wal_fsync_seconds_sum"]
		snaps += m["durable_snapshots_total"]
		dropped += m["watch_dropped_total"]
		pending = max(pending, m["watch_pending_events"])
		reqs += sumPrefix(m, "http_requests_total")
	}
	res.count("sut.wal_fsyncs", fsyncs, "count")
	res.count("sut.wal_fsync_s", fsyncS, "s")
	res.count("sut.snapshots", snaps, "count")
	res.count("sut.watch_pending_max", pending, "count")
	res.count("sut.watch_dropped", dropped, "count")
	if front != nil {
		m, err := scrape(front.http)
		if err != nil {
			return err
		}
		res.count("sut.frontend_failovers", m["frontend_failover_total"], "count")
		reqs += sumPrefix(m, "http_requests_total")
	}
	res.count("sut.http_requests", reqs, "count")
	return nil
}

// frontStats is the frontend's /stats shape.
type frontStats struct {
	Shards []watch.Stats `json:"shards"`
	Total  watch.Stats   `json:"total"`
}

// fleetPaced drives two shards behind a frontend on a schedule: the
// regime a real collector feed puts the fleet in, which a saturating
// client never shows.
func fleetPaced(ctx context.Context, r *rig, p plan, seed int64, res *Result) error {
	steps := ladder
	if p.smoke {
		steps = smokeLadder
	}
	// Five equal segments — live, busy x3, peak — share the budget, and
	// the shards checkpoint once per segment length: every segment then
	// holds exactly one checkpoint stall per shard wherever the ticker's
	// phase falls, so segments are comparable with each other and runs
	// with runs.
	segment := time.Duration(p.seconds) * time.Second / 5
	verifyEvents := 100_000
	if p.smoke {
		segment = 400 * time.Millisecond
		verifyEvents = 5_000
	}
	snapEvery := segment
	shardArgs := func(i int) []string {
		return []string{"-shards", "2", "-shard-index", strconv.Itoa(i), "-dict=false", "-snapshot-interval", snapEvery.String()}
	}

	var f *feed.Feed
	var shards []*child
	var front *child
	if err := timeSetup(p, res, func() (err error) {
		for _, c := range shards {
			c.kill()
		}
		if front != nil {
			front.kill()
		}
		shards = nil
		if err = r.build("wormwatchd"); err != nil {
			return err
		}
		if f, err = feed.Build(feedScale, seed); err != nil {
			return err
		}
		var urls []string
		for i := 0; i < 2; i++ {
			s, err := r.startDaemon(daemonSpec{name: "shard" + strconv.Itoa(i), feed: true, args: shardArgs(i)})
			if err != nil {
				return err
			}
			shards, urls = append(shards, s), append(urls, s.http)
		}
		front, err = r.startDaemon(daemonSpec{name: "frontend", args: []string{"-frontend", strings.Join(urls, ",")}})
		return err
	}); err != nil {
		return err
	}
	res.Machine.WALFS = fsType(shards[0].dir)
	var ladderText []string
	for _, s := range steps {
		ladderText = append(ladderText, fmt.Sprintf("%s %d ev/s", s.name, s.rate))
	}
	res.Config = map[string]string{
		"shards":   "wormwatchd -feed-listen <unix> -wal <dir> -addr 127.0.0.1:0 " + strings.Join(shardArgs(0), " ") + " (and -shard-index 1); fsync 50ms",
		"frontend": "wormwatchd -frontend <shard0>,<shard1> -addr 127.0.0.1:0; every query goes through it",
		"ladder":   fmt.Sprintf("%s; open loop on a %v schedule; live, busy x3, peak segments of %v", strings.Join(ladderText, ", "), tick, segment),
		"limits":   fmt.Sprintf("step sustained when its tail <= %g ms, no probe unseen after %v, and the generator's median lag < %v in every segment", latencyLimitMS, probeLimit, onSchedule),
		"feed":     fmt.Sprintf("%s world, feed seed %d: %d records/loop, %d prefixes x %d universes, rangemap skew %.3f", f.Scale, seed, len(f.Recs), f.Prefixes, feed.Universes, f.Skew2),
		"probes":   fmt.Sprintf("blackhole-onset /32 every rate/%d records, polled at /prefix/{p}", probesPerSecond),
	}
	res.count("serve.rangemap_skew", f.Skew2, "ratio")
	if f.Skew2 > 1.15 {
		res.fail(1, "rangemap skew %.3f exceeds 1.15", f.Skew2)
	}

	g, err := newLoadgen(f, shards)
	if err != nil {
		return err
	}
	defer g.close()
	statsURL := front.http + "/stats"
	fleetSettled := func() (watch.Stats, error) {
		var total watch.Stats
		err := waitFor(ctx, 10*time.Second, "shards applying every ingested event", func() (bool, error) {
			fs, err := getJSON[frontStats](statsURL)
			total = fs.Total
			return err == nil && total.Ingested == uint64(g.stream.Events()) && total.Processed+total.Dropped == total.Ingested, err
		})
		return total, err
	}

	// Verify before any timing: the fleet's merged /alerts must be the
	// bytes a single engine renders for the same feed.
	if _, err := g.burst(ctx, verifyEvents, 0); err != nil {
		return err
	}
	if _, err := fleetSettled(); err != nil {
		return err
	}
	status, merged, err := get(front.http + "/alerts")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("merged /alerts: status %d, err %v", status, err)
	}
	ref := newReference(f)
	if err := ref.feed(verifyEvents); err != nil {
		return err
	}
	res.Attempted++
	if want := ref.alertsBody(); !bytes.Equal(merged, want) {
		res.fail(1, "merged /alerts sha256 %s (%d B) differs from the single-engine reference %s (%d B)", hexSHA(merged), len(merged), hexSHA(want), len(want))
	}
	res.Config["verify"] = fmt.Sprintf("merged /alerts after %d events: sha256 %s, %d B, equal to the reference engine", verifyEvents, hexSHA(merged), len(merged))
	ref.eng.Close()

	// Warm: fill windows and alert retention, and measure the fleet's
	// closed-loop ceiling on the way — over exactly one checkpoint
	// interval, so the burst holds one stall per shard wherever it starts.
	warmEvents, took, err := g.burstFor(ctx, segment)
	if err != nil {
		return err
	}
	res.set("ingest_events_per_s", float64(warmEvents)/took.Seconds())
	// Top the warm phase up, untimed, to a size the timed part never
	// reaches (400K ev/s was the fastest seen): every run then sends the
	// same events, so cpu_s, peak_rss_mb and the /alerts body measure the
	// same work whatever rate the fleet reached, and a faster fleet is not
	// charged for the extra events it swallowed.
	warmTotal := int(segment.Seconds() * 450_000)
	if rest := warmTotal - warmEvents; rest > 0 {
		if _, err := g.burst(ctx, rest, 0); err != nil {
			return err
		}
	}
	res.Config["warm"] = fmt.Sprintf("closed loop for one segment: %d events, topped up to %d", warmEvents, warmTotal)

	q := stats.NewProbeQueues(len(shards))
	light := []string{"/stats", "/prefix/" + f.Tracked[0].String()}
	qr := startQuerier(f, front.http, light, 10*time.Millisecond, q)
	defer func() {
		select {
		case <-qr.done:
		default:
			qr.halt()
		}
	}()
	rateOK := 0
	var busyP50, busyAll, busyQuery []float64
	for _, step := range steps {
		sustained := true
		var stepAll, stepLag []float64
		backlogEnd := 0
		for seg := 0; seg < step.segments; seg++ {
			qr.drain()
			lag, abandoned, backlog, err := g.paced(step.rate, segment, q)
			if err != nil {
				return err
			}
			if abandoned {
				sustained = false
			}
			// Let the tail of the segment become visible before judging it.
			if err := waitFor(ctx, probeLimit+time.Second, "probes of "+step.name, func() (bool, error) { return q.Outstanding() == 0, nil }); err != nil {
				return err
			}
			lat, _, expired, maxQueue := q.Drain()
			res.Attempted += int64(len(lat) + expired)
			if expired > 0 {
				res.fail(int64(expired), "%s: %d probes not visible within %v", step.name, expired, probeLimit)
				sustained = false
			}
			if stats.Percentile(lag, 50) >= stats.Milliseconds(onSchedule) {
				sustained = false
			}
			stepAll, stepLag = append(stepAll, lat...), append(stepLag, lag...)
			backlogEnd = backlog
			res.count(fmt.Sprintf("loadgen.%s.probe_queue_max", step.name), float64(maxQueue), "count")
			if step.name == "busy" {
				busyP50 = append(busyP50, stats.Percentile(lat, 50))
				busyQuery = append(busyQuery, qr.drain()...)
			}
		}
		t := stats.Summarize(stepAll, 99)
		if t.Tail > latencyLimitMS {
			sustained = false
		}
		if sustained {
			rateOK = step.rate
		}
		lt := stats.Summarize(stepLag, 99)
		res.count("loadgen."+step.name+".p50_ms", t.P50, "ms")
		res.count(fmt.Sprintf("loadgen.%s.p%g_ms", step.name, t.TailPct), t.Tail, "ms")
		res.count("loadgen."+step.name+".lag_p50_ms", lt.P50, "ms")
		res.count(fmt.Sprintf("loadgen.%s.lag_p%g_ms", step.name, lt.TailPct), lt.Tail, "ms")
		res.count("loadgen."+step.name+".backlog_end_events", float64(backlogEnd), "count")
		switch step.name {
		case "live":
			res.set("alert_visible_live_p50_ms", t.P50, samples(t.N, 50))
		case "busy":
			busyAll = stepAll
		}
	}
	qr.halt()
	qr.account(res)
	bt, qt := stats.Summarize(busyAll, 99), stats.Summarize(busyQuery, 99)
	res.set("alert_visible_p50_ms", stats.Median(busyP50), repeats(busyP50))
	res.set("alert_visible_p99_ms", bt.Tail, samples(bt.N, bt.TailPct))
	res.set("rate_ok_events_per_s", float64(rateOK))
	res.set("query_p50_ms", qt.P50, samples(qt.N, 50))
	res.set("query_p99_ms", qt.Tail, samples(qt.N, qt.TailPct))

	// Cold merged /alerts: a probe for each shard invalidates every cache
	// on the way, then the whole alert set crosses shard, frontend and
	// client.
	var fetchMS []float64
	alertBytes, fetches := 0, 3
	if p.smoke {
		fetches = 1
	}
	for i := 0; i < fetches; i++ {
		if _, err := g.burst(ctx, 2, 1); err != nil {
			return err
		}
		if _, err := fleetSettled(); err != nil {
			return err
		}
		t := time.Now()
		status, body, err := get(front.http + "/alerts")
		res.Attempted++
		if err != nil || status != http.StatusOK {
			res.fail(1, "merged /alerts: status %d, err %v", status, err)
		}
		fetchMS = append(fetchMS, stats.Milliseconds(time.Since(t)))
		alertBytes = len(body)
	}
	res.set("alerts_full_fetch_ms", stats.Median(fetchMS), repeats(fetchMS))
	res.count("serve.alerts_bytes", float64(alertBytes), "B")

	// Nothing lost or shed anywhere: each shard consumed every event and
	// between them they own every one.
	sent := g.stream.Events()
	res.Attempted += int64(sent)
	total, err := fleetSettled()
	if err != nil {
		res.fail(int64(sent), "at end: %v (ingested %d of %d sent)", err, total.Ingested, sent)
	}
	if total.Dropped > 0 {
		res.fail(int64(total.Dropped), "%d events dropped", total.Dropped)
	}
	res.count("watch.alerts", float64(total.Alerts), "count")
	res.count("watch.tracked_prefixes", float64(total.TrackedPrefixes), "count")
	skipped := 0.0
	for _, s := range shards {
		ds, err := getJSON[durableStatus](s.http + "/durable")
		if err != nil {
			return err
		}
		if ds.Status.Seq != uint64(sent) {
			res.fail(1, "%s consumed %d of %d events", s.name, ds.Status.Seq, sent)
		}
		skipped += float64(ds.Status.Skipped)
	}
	res.count("durable.owner_skipped_share", skipped/float64(2*sent), "ratio")
	if err := scrapeSUT(res, shards, front); err != nil {
		return err
	}

	// The three processes run side by side, so the fleet's footprint is
	// the sum of their peaks (which also steadies it: one shard's GC
	// timing moves its own peak by a third from run to run).
	var cpu time.Duration
	rss := 0.0
	for _, c := range append(shards, front) {
		u := c.kill()
		cpu += u.CPU
		rss += u.RSSMiB
	}
	res.set("cpu_s", cpu.Seconds())
	res.set("peak_rss_mb", rss)
	res.count("loadgen.events_per_cpu_s", float64(sent)/cpu.Seconds(), "ev/s")
	return nil
}
