package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"bgpworms/bench/feed"
	"bgpworms/bench/stats"
	_ "bgpworms/internal/attack" // registers the scenarios the sweep runs
	"bgpworms/internal/core"
	"bgpworms/internal/durable"
	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/serve"
	istats "bgpworms/internal/stats"
	"bgpworms/internal/watch"
)

// The traced run never drives the serving binaries: it calls each
// layer's public functions in-process, one obs span per layer call (per
// pass over the feed for the serving path — a time.Now pair per stage
// per event would be a twentieth of a 2 µs event), and derives the
// per-layer metrics from the spans and from counts taken at the same
// boundaries. The serving path's per-event costs are CPU time, not wall:
// the engine applies events on its own goroutines while the caller
// encodes and journals the next ones, so stage walls overlap and do not
// add up, while the CPU each stage burns does. Every traced run measures
// every layer, because one metric list serves all four workloads; the
// workload's own path runs at full size and the other paths at smoke
// size.

// layers collects per-layer values by name.
type layers map[string]float64

// tracedRun fills res with every per-layer metric and the path budgets.
func tracedRun(r *rig, p plan, seed int64, res *Result) error {
	small := plan{seconds: p.seconds, smoke: true}
	worldPlan, sweepPlan, feedPlan := small, small, small
	switch res.Workload {
	case "world-cold":
		worldPlan = p
	case "sweep-warm":
		sweepPlan = p
	default:
		feedPlan = p
	}
	if err := r.build("worms"); err != nil {
		return err
	}
	tr := obs.NewTrace("bench " + res.Workload)
	L := layers{}
	res.Config = map[string]string{
		"sizes": fmt.Sprintf("world path %s, sweep %s, serving feed %s", worldPlan.scale(), sweepPlan.sweepScales(), feedScale),
	}

	if err := traceWorld(tr, r, worldPlan, seed, L, res); err != nil {
		return err
	}
	if err := traceSweep(tr, sweepPlan, L, res); err != nil {
		return err
	}
	f, err := feed.Build(feedScale, seed)
	if err != nil {
		return err
	}
	if err := traceServing(tr, r, f, feedPlan, L, res); err != nil {
		return err
	}

	for _, l := range perLayer {
		v, ok := L[l.Name]
		if !ok {
			return fmt.Errorf("traced run measured no %s", l.Name)
		}
		res.Metrics = append(res.Metrics, Metric{Name: l.Name, Value: v, Unit: l.Unit, Better: l.Better, Moves: l.Moves})
	}
	res.TraceFile = filepath.Join(filepath.Dir(r.bin), fmt.Sprintf("trace-%s-%d.json", res.Workload, seed))
	return tr.WriteFile(res.TraceFile)
}

// heap reads the allocation and GC-CPU counters the runtime keeps.
type heap struct{ bytes, objects, gcCPU, allCPU float64 }

func readHeap() heap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	// No forced collection here: the CPU classes are brought up to date at
	// the end of each GC cycle, and being one cycle of forty stale costs
	// less than moving every later cycle of the world being measured.
	metrics.Read(s)
	return heap{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), s[2].Value.Float64(), s[3].Value.Float64()}
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// traceWorld is worms in-process: the same calls in the same order,
// each under a span, printing the same report — whose hash must equal
// the binary's stdout.
func traceWorld(tr *obs.Trace, r *rig, p plan, seed int64, L layers, res *Result) error {
	params, err := gen.Preset(p.scale())
	if err != nil {
		return err
	}
	workers := runtime.NumCPU()
	params.Seed, params.Workers, params.Engine = seed, workers, "delta"
	pipe := core.NewPipeline(workers)
	var report bytes.Buffer

	root := tr.Start("world")
	root.SetAttr("scale", p.scale())
	h0 := readHeap()
	sp := root.Child("gen.build")
	w, err := gen.Build(params)
	sp.End()
	if err != nil {
		return err
	}
	sp = root.Child("gen.churn")
	_, err = w.RunChurn()
	sp.End()
	if err != nil {
		return err
	}
	h1 := readHeap()
	deliveries := float64(w.Net.Steps())

	// genesis's half of the collector layer. worms never writes MRT, so
	// this span is no child of the world's and no row of its budget; it
	// runs here because it needs the world, and the world must be garbage
	// before the analysis starts, as it is in worms — with a gigabyte of
	// routers still reachable, every GC cycle during Analyze would mark
	// them and the fold would measure three times slower than the binary.
	sp = tr.Start("collector.write_mrt")
	mrtBytes, records := 0, 0
	for _, c := range w.Collectors {
		var buf bytes.Buffer
		n, err := c.WriteUpdatesMRT(&buf)
		if err != nil {
			return err
		}
		mrtBytes, records = mrtBytes+buf.Len(), records+n
	}
	sp.End()

	sp = root.Child("core.load")
	ds := core.FromCollectors(w.Collectors)
	sp.End()
	blackhole := w.Registry.All()
	w = nil
	sp = root.Child("core.analyze")
	a := pipe.Analyze(ds, blackhole)
	sp.End()
	sp = root.Child("core.render")
	renderAnalysis(&report, a)
	sp.End()
	sp = root.Child("gen.evolution")
	err = renderEvolution(&report, pipe, seed, workers)
	sp.End()
	root.End()
	if err != nil {
		return err
	}

	spans := spanSeconds(tr)
	build, churn := spans["gen.build"], spans["gen.churn"]
	L["simnet.deliveries"] = deliveries
	L["simnet.us_per_delivery"] = (build + churn) * 1e6 / deliveries
	L["simnet.alloc_bytes_per_delivery"] = (h1.bytes - h0.bytes) / deliveries
	L["simnet.allocs_per_delivery"] = (h1.objects - h0.objects) / deliveries
	L["simnet.gc_cpu_share"] = (h1.gcCPU - h0.gcCPU) / (h1.allCPU - h0.allCPU)
	L["gen.build_s"], L["gen.churn_s"] = build, churn
	L["collector.write_mrt_s"] = spans["collector.write_mrt"]
	L["collector.mrt_bytes"], L["collector.records"] = float64(mrtBytes), float64(records)
	L["core.load_s"], L["core.analyze_s"], L["core.render_s"] = spans["core.load"], spans["core.analyze"], spans["core.render"]

	// The binary, once, for the two things only it can say: its stdout
	// hash and the untraced wall the budget must add up to.
	binSHA, _, _, u, err := r.runBatch("worms", wormsArgs(p, seed)...)
	if err != nil {
		return err
	}
	res.Attempted++
	if got := hexSHA(report.Bytes()); got != binSHA {
		res.fail(1, "in-process report sha256 %s differs from worms stdout %s", got, binSHA)
	}
	res.Config["world_sha256"] = binSHA
	wall := u.Wall.Seconds()
	attributed := 0.0
	for _, name := range []string{"gen.build", "gen.churn", "core.load", "core.analyze", "core.render", "gen.evolution"} {
		attributed += spans[name]
		res.Budget = append(res.Budget, BudgetRow{"world", name, spans[name], "s", spans[name] / wall})
	}
	res.Budget = append(res.Budget,
		BudgetRow{"world", "sum of layers", attributed, "s", attributed / wall},
		BudgetRow{"world", "worms wall (untraced binary)", wall, "s", 1})
	// The same six calls made both ways: what the binary's wall holds
	// beyond them (start-up, flag parsing, exit) is unattributed; when the
	// traced calls come out slower than the whole binary, that is overhead.
	L["trace.world_unattributed_share"] = max(0, wall-attributed) / wall
	L["trace.overhead_share"] = max(0, attributed-wall) / wall
	return nil
}

// spanSeconds sums span durations by name.
func spanSeconds(tr *obs.Trace) map[string]float64 {
	out := map[string]float64{}
	for _, s := range tr.Records() {
		out[s.Name] += float64(s.DurUS) / 1e6
	}
	return out
}

// renderAnalysis prints what cmd/worms prints for an analysis, byte for
// byte; the traced run's hash check is what keeps the two in step.
func renderAnalysis(w io.Writer, a *core.Analysis) {
	fmt.Fprintln(w, "== Table 1: dataset overview ==")
	fmt.Fprintln(w, core.RenderTable1(a.Table1))
	fmt.Fprintln(w, "== Table 2: ASes with observed communities ==")
	fmt.Fprintln(w, core.RenderTable2(a.Table2))
	fmt.Fprintln(w, "== Figure 4a: updates with communities, per collector ==")
	fmt.Fprintln(w, core.RenderFigure4a(a.Fig4a))
	fmt.Fprintf(w, "overall share of announcements with >=1 community: %.1f%%\n\n", a.Share*100)
	fmt.Fprintln(w, "== Figure 4b: communities and associated ASes per update ==")
	fmt.Fprintln(w, core.RenderFigure4b(a.Fig4b))
	all, bh := a.Prop.Figure5a()
	fmt.Fprintln(w, "== Figure 5a: propagation distance ECDF (all vs blackholing) ==")
	fmt.Fprintln(w, core.RenderFigure5a(all, bh))
	fmt.Fprintf(w, "mean distance: all=%.2f blackholing=%.2f hops\n\n", all.Mean(), bh.Mean())
	fmt.Fprintln(w, "== Figure 5b: relative propagation distance by path length ==")
	fmt.Fprintln(w, core.RenderFigure5b(a.Prop.Figure5b(3, 10)))
	off, on := a.Prop.Figure5c(10)
	fmt.Fprintln(w, "== Figure 5c: top-10 community values off-path vs on-path ==")
	fmt.Fprintln(w, core.RenderFigure5c(off, on))
	fmt.Fprintln(w, "== §4.3: transit ASes relaying foreign communities ==")
	fmt.Fprintf(w, "%d of %d transit ASes (%s) forward received communities onward\n\n",
		a.Transit.Propagators, a.Transit.TransitASes, istats.Pct(a.Transit.Propagators, a.Transit.TransitASes))
	fmt.Fprintln(w, "== Figure 6: community forwarding vs filtering ==")
	fmt.Fprintln(w, core.RenderFilterSummary(a.Filter.Summarize(10)))
	fmt.Fprintln(w, "Figure 6b log-log bins (x=filtered, y=forwarded, count):")
	for _, b := range a.Filter.Hexbin(1, 2) {
		fmt.Fprintf(w, "  (%.1f, %.1f) -> %d\n", b.X, b.Y, b.Count)
	}
	fmt.Fprintln(w)
}

// renderEvolution is worms's Figure 3 tail: one tiny world per year.
func renderEvolution(w io.Writer, pipe *core.Pipeline, seed int64, workers int) error {
	fmt.Fprintln(w, "== Figure 3: community use over time ==")
	base := gen.Tiny()
	base.Seed, base.Workers, base.Engine = seed, workers, "delta"
	pts, err := gen.Evolution(base, []int{2010, 2012, 2014, 2016, 2018}, func(w *gen.Internet) (int, int, int, int) {
		return pipe.EvolutionMetrics(core.FromCollectors(w.Collectors))
	})
	if err != nil {
		return err
	}
	t := istats.NewTable("Year", "UniqueASes", "UniqueCommunities", "AbsoluteCommunities", "TableEntries")
	for _, p := range pts {
		t.Row(p.Year, p.UniqueASes, p.UniqueCommunities, p.AbsoluteCommunities, p.TableEntries)
	}
	fmt.Fprintln(w, t.String())
	return nil
}

// traceSweep runs attacklab's sweep in-process with a span per cell, and
// times freeze and fork directly on the grid's largest world.
func traceSweep(tr *obs.Trace, p plan, L layers, res *Result) error {
	scales := strings.Split(p.sweepScales(), ",")
	g := scenario.Grid{
		Scenarios: strings.Split(sweepScenarios, ","), Scales: scales, Seeds: []int64{sweepSeed},
		EngineWorkers: []int{1}, Engines: []string{"delta"}, CommunitySets: []string{"verified"}, VPs: 48,
	}
	root := tr.Start("sweep")
	rep, err := scenario.SweepOpts(g, runtime.NumCPU(), scenario.SweepOpt{Trace: tr})
	root.End()
	if err != nil {
		return err
	}
	res.Attempted += int64(rep.Ran)
	if rep.Errored > 0 {
		res.fail(int64(rep.Errored), "traced sweep: %d of %d cells errored", rep.Errored, rep.Ran)
	}
	var cellMS []float64
	for _, s := range tr.Records() {
		if strings.HasPrefix(s.Name, "cell ") {
			cellMS = append(cellMS, float64(s.DurUS)/1000)
		}
	}
	L["scenario.cell_p50_ms"], L["scenario.cell_max_ms"] = stats.Median(cellMS), stats.Percentile(cellMS, 100)
	L["scenario.snapshot_builds"], L["scenario.snapshot_forks"] = float64(rep.SnapshotBuilds), float64(rep.SnapshotForks)

	params, err := gen.Preset(scales[len(scales)-1])
	if err != nil {
		return err
	}
	params.Seed, params.Workers, params.Engine = sweepSeed, 1, "delta"
	sp := tr.Start("gen.snapshot_build")
	snap, err := gen.BuildSnapshot(params)
	sp.End()
	if err != nil {
		return err
	}
	var forkMS []float64
	for i := 0; i < 5; i++ {
		sp := tr.Start("gen.fork")
		t := time.Now()
		_, err := snap.Fork(nil)
		forkMS = append(forkMS, stats.Milliseconds(time.Since(t)))
		sp.End()
		if err != nil {
			return err
		}
	}
	spans := spanSeconds(tr)
	L["gen.snapshot_build_s"] = spans["gen.snapshot_build"]
	L["gen.fork_ms"] = stats.Median(forkMS)
	sweep, cells := spans["sweep"], 0.0
	for _, ms := range cellMS {
		cells += ms / 1000
	}
	res.Budget = append(res.Budget, BudgetRow{"sweep", "in-process sweep wall", sweep, "s", 1},
		BudgetRow{"sweep", "cells (summed over workers)", cells, "s", cells / sweep})
	return snap.Discard()
}

// discard is an http.ResponseWriter that keeps nothing, so timing a
// handler does not time a 30 MB buffer growing.
type discard struct {
	h      http.Header
	status int
	n      int
}

func (d *discard) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}
func (d *discard) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }

// timeGets serves path n times through h and returns the mean.
func timeGets(h http.Handler, path string, n int) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	start := time.Now()
	for i := 0; i < n; i++ {
		var w discard
		h.ServeHTTP(&w, req)
		if w.status != 0 && w.status != http.StatusOK {
			return 0, fmt.Errorf("GET %s: status %d", path, w.status)
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// traceServing makes stage-isolated passes over a captured stretch of
// the feed: each stage of the ingest path alone, then the whole
// Store.Ingest, so the stages can be checked against the whole.
func traceServing(tr *obs.Trace, r *rig, f *feed.Feed, p plan, L layers, res *Result) error {
	// One pass through every prefix universe leaves the engines holding
	// what the daemons hold at the end of a workload.
	loops := feed.Universes
	if p.smoke {
		loops = 2
	}
	raw := f.NewStream().Append(nil, loops*len(f.Recs), 0, nil)
	root := tr.Start("serving")
	defer root.End()
	root.SetAttr("feed", f.Scale)
	// pass runs one stage over the whole stretch under one span, from a
	// collected heap, and returns what it cost.
	type cost struct{ cpuNS, wallNS, allocs float64 }
	pass := func(name string, fn func() error) (cost, error) {
		runtime.GC()
		m0, c0 := mallocs(), cpuTime()
		sp := root.Child(name)
		t := time.Now()
		err := fn()
		wall := time.Since(t)
		sp.End()
		return cost{float64((cpuTime() - c0).Nanoseconds()), float64(wall.Nanoseconds()), mallocs() - m0}, err
	}
	// The four stages the budget adds up run budgetReps times each, on
	// fresh state, and report their median: one GC cycle landing in one
	// pass and not another is a tenth of a 100 ns stage.
	const budgetReps = 3
	medianCPU := func(cs []cost) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = c.cpuNS
		}
		return stats.Median(xs)
	}

	// mrt + bgp + core.StreamMRTUpdates into a sink that does nothing.
	n := 0
	c, err := pass("mrt.decode", func() error {
		var err error
		n, err = watch.StreamMRT(bytes.NewReader(raw), "mrt:feed", func(watch.Event) {})
		return err
	})
	if err != nil {
		return err
	}
	N := float64(n)
	decode := c.cpuNS / N
	L["mrt.decode_ns_per_event"], L["mrt.decode_allocs_per_event"] = decode, c.allocs/N
	events := make([]watch.Event, 0, n)
	if _, err := watch.StreamMRT(bytes.NewReader(raw), "mrt:feed", func(ev watch.Event) { events = append(events, ev) }); err != nil {
		return err
	}
	raw = nil

	var buf []byte
	var costs []cost
	for rep := 0; rep < budgetReps; rep++ {
		c, _ := pass("durable.encode", func() error {
			for i := range events {
				ev := events[i]
				ev.Seq = uint64(i + 1)
				buf = durable.EncodeEvent(buf[:0], &ev)
			}
			return nil
		})
		costs = append(costs, c)
	}
	encode := medianCPU(costs) / N
	L["durable.encode_ns_per_event"] = encode
	var blob []byte
	ends := make([]int, len(events))
	for i := range events {
		ev := events[i]
		ev.Seq = uint64(i + 1)
		blob = durable.EncodeEvent(blob, &ev)
		ends[i] = len(blob)
	}

	var walDir string
	costs = nil
	for rep := 0; rep < budgetReps; rep++ {
		walDir = filepath.Join(r.tmp, fmt.Sprintf("trace-wal%d", rep))
		wal, _, err := durable.OpenWAL(walDir, durable.WALOptions{})
		if err != nil {
			return err
		}
		c, err := pass("durable.wal_append", func() error {
			at := 0
			for i, end := range ends {
				if err := wal.Append(uint64(i+1), blob[at:end]); err != nil {
					return err
				}
				at = end
			}
			return nil
		})
		if err != nil {
			return err
		}
		costs = append(costs, c)
		if err := wal.Sync(); err != nil {
			return err
		}
		L["durable.wal_bytes_per_event"] = float64(wal.SizeBytes()) / N
		if err := wal.Close(); err != nil {
			return err
		}
	}
	appendNS := medianCPU(costs) / N
	L["durable.wal_append_ns_per_event"] = appendNS
	blob, ends = nil, nil

	ingestAll := func(sink func(watch.Event), flush ...func()) func() error {
		return func() error {
			for i := range events {
				sink(events[i])
			}
			for _, f := range flush {
				f()
			}
			return nil
		}
	}
	var bare *watch.Engine
	costs = nil
	allocs := 0.0
	for rep := 0; rep < budgetReps; rep++ {
		if bare != nil {
			bare.Close()
		}
		bare = watch.NewEngine(watch.Config{})
		c, _ := pass("watch.ingest", ingestAll(bare.Ingest, bare.Flush))
		costs, allocs = append(costs, c), c.allocs
	}
	defer bare.Close()
	engine := medianCPU(costs) / N
	st := bare.Stats()
	L["watch.ingest_ns_per_event"], L["watch.allocs_per_event"] = engine, allocs/N
	L["watch.alerts"], L["watch.tracked_prefixes"] = float64(st.Alerts), float64(st.TrackedPrefixes)

	sem := semantics.NewEngine(semantics.Config{})
	mirrored := watch.NewEngine(watch.Config{Semantics: sem})
	c, _ = pass("watch.ingest+semantics.mirror", ingestAll(mirrored.Ingest, mirrored.Flush, sem.Flush))
	mirrored.Close()
	L["semantics.mirror_ns_per_event"] = c.cpuNS/N - engine
	c, _ = pass("semantics.snapshot", func() error { sem.Snapshot(); return nil })
	sem.Close()
	L["semantics.snapshot_ms"] = c.wallNS / 1e6

	// The whole front door: sequence, encode, append, engine — under the
	// store's mutex, with the daemon's default fsync cadence.
	var storeDir string
	var stored *watch.Engine
	var store *durable.Store
	costs = nil
	for rep := 0; rep < budgetReps; rep++ {
		if store != nil {
			if err := store.Close(); err != nil {
				return err
			}
			stored.Close()
		}
		storeDir = filepath.Join(r.tmp, fmt.Sprintf("trace-store%d", rep))
		stored = watch.NewEngine(watch.Config{})
		if store, _, err = durable.Open(stored, nil, durable.Options{Dir: storeDir}); err != nil {
			return err
		}
		c, _ := pass("durable.store_ingest", ingestAll(store.Sink(), stored.Flush))
		if err := store.Err(); err != nil {
			return err
		}
		costs = append(costs, c)
	}
	defer stored.Close()
	whole := medianCPU(costs) / N
	overhead := whole - encode - appendNS - engine
	L["durable.store_ingest_ns_per_event"], L["durable.store_overhead_ns_per_event"] = whole, overhead
	L["trace.serving_unattributed_share"] = overhead / whole
	for _, row := range []struct {
		name string
		v    float64
	}{{"durable.encode", encode}, {"durable.wal_append", appendNS}, {"watch.ingest", engine}, {"durable.store_overhead (unattributed)", overhead}} {
		res.Budget = append(res.Budget, BudgetRow{"serving", row.name, row.v, "cpu ns/ev", row.v / whole})
	}
	res.Budget = append(res.Budget,
		BudgetRow{"serving", "Store.Ingest (whole)", whole, "cpu ns/ev", 1},
		BudgetRow{"serving", "mrt.decode (before the store, per shard)", decode, "cpu ns/ev", decode / whole})

	// The stall a checkpoint imposes is its wall time under the store's
	// mutex.
	c, err = pass("durable.snapshot", store.Snapshot)
	if err != nil {
		return err
	}
	L["durable.snapshot_ms"] = c.wallNS / 1e6
	ckpts, _ := filepath.Glob(filepath.Join(storeDir, "snap-*.ckpt"))
	if len(ckpts) == 0 {
		return fmt.Errorf("Store.Snapshot left no checkpoint in %s", storeDir)
	}
	sort.Strings(ckpts)
	info, err := os.Stat(ckpts[len(ckpts)-1])
	if err != nil {
		return err
	}
	L["durable.snapshot_bytes"] = float64(info.Size())
	if err := store.Close(); err != nil {
		return err
	}

	// Recovery as serve-saturate meets it: a WAL and no checkpoint.
	recovered := watch.NewEngine(watch.Config{})
	var rec durable.Recovery
	var reopened *durable.Store
	c, err = pass("durable.open", func() error {
		var err error
		reopened, rec, err = durable.Open(recovered, nil, durable.Options{Dir: walDir})
		return err
	})
	if err != nil {
		return err
	}
	L["durable.recovery_records_per_s"] = float64(rec.Replayed) / (c.wallNS / 1e9)
	res.Attempted++
	if rec.Replayed != n || recovered.Stats().Alerts != st.Alerts {
		res.fail(1, "recovery replayed %d of %d records and raised %d alerts, the bare engine %d", rec.Replayed, n, recovered.Stats().Alerts, st.Alerts)
	}
	reopened.Close()
	recovered.Close()

	// A two-shard fleet in-process: the Owner filter, then the HTTP layer
	// over the shards' engines.
	rm := serve.NewRangeMap(2)
	var fronts []string
	skipped := 0.0
	for i := 0; i < 2; i++ {
		eng := watch.NewEngine(watch.Config{})
		defer eng.Close()
		s, _, err := durable.Open(eng, nil, durable.Options{Dir: filepath.Join(r.tmp, fmt.Sprintf("trace-shard%d", i)), Owner: rm.OwnerFunc(i)})
		if err != nil {
			return err
		}
		if err := ingestAll(s.Sink(), eng.Flush)(); err != nil {
			return err
		}
		skipped += float64(s.Status().Skipped)
		defer s.Close()
		srv := httptest.NewServer(serve.New(serve.Options{Watch: eng, Registry: obs.NewRegistry(), ShardIndex: i, ShardCount: 2}).Handler())
		defer srv.Close()
		fronts = append(fronts, srv.URL)
	}
	L["durable.owner_skipped_share"] = skipped / (2 * N)
	L["serve.rangemap_skew"] = f.Skew2

	single := serve.New(serve.Options{Watch: bare, Registry: obs.NewRegistry()}).Handler()
	sp := root.Child("serve.render_alerts")
	rec1 := httptest.NewRecorder()
	t := time.Now()
	single.ServeHTTP(rec1, httptest.NewRequest(http.MethodGet, "/alerts", nil))
	L["serve.render_alerts_ms"] = stats.Milliseconds(time.Since(t))
	sp.End()
	L["serve.alerts_bytes"] = float64(rec1.Body.Len())
	d, err := timeGets(single, "/stats", 2000)
	if err != nil {
		return err
	}
	L["serve.cached_get_us"] = float64(d.Nanoseconds()) / 1e3
	if d, err = timeGets(single, "/prefix/"+f.Tracked[0].String(), 2000); err != nil {
		return err
	}
	L["serve.prefix_get_us"] = float64(d.Nanoseconds()) / 1e3

	front := serve.NewFrontend(fronts, obs.NewRegistry()).Handler()
	sp = root.Child("serve.frontend_merge")
	rec2 := httptest.NewRecorder()
	t = time.Now()
	front.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/alerts", nil))
	L["serve.frontend_merge_ms"] = stats.Milliseconds(time.Since(t))
	sp.End()
	res.Attempted++
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		res.fail(1, "in-process merged /alerts (%d B) differs from the single engine's (%d B)", rec2.Body.Len(), rec1.Body.Len())
	}
	if d, err = timeGets(front, "/alerts", 200); err != nil {
		return err
	}
	L["serve.frontend_revalidate_us"] = float64(d.Nanoseconds()) / 1e3
	return nil
}
