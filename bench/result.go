package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"

	"bgpworms/internal/obs"
)

// Workload names, in the order -all runs them.
var workloads = []string{"world-cold", "sweep-warm", "serve-saturate", "fleet-paced"}

// def fixes a metric's unit, direction and regression bound in one
// place; results and the A/A comparison read it.
type def struct {
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median the metric may worsen by
	// before -aa and -compare call a breach, and On the bound on the
	// workloads that need another. Each is the smallest of the issue's own
	// figure (0.10; 0.15 and 0.20 for the two tails), 0.15, 0.20 and 0.25
	// that covers the interquartile spread every set of ten runs showed for
	// that metric on that workload: the two of the interleaved A/A and, for
	// the contract's four, a third over other seeds (README, "A/A"). What
	// spreads wider than 0.25 keeps 0.25 and reads "unresolved".
	Bound float64
	On    map[string]float64
	Help  string
}

// bound is the regression bound of a metric on one workload.
func (d def) bound(workload string) float64 {
	if b, ok := d.On[workload]; ok {
		return b
	}
	return d.Bound
}

// contract lists the end-to-end metrics every workload reports on the
// final line of an untraced run: BENCHMARK.json has one list for all four
// workloads, so it holds only what every one of them measures on its own
// — set-up, CPU, memory, and the one wait its user came for (response).
// Everything else a workload measures is in its result file and judged by
// -aa and -compare.
var contract = []string{"setup_s", "response_s", "cpu_s", "peak_rss_mb"}

// contractBound is every contract metric's bound in BENCHMARK.json, which
// holds one per metric, not one per workload: the benchmark is accepted
// only while each workload's spread over ten seeds stays inside it, and
// is asked to stay inside a third of it. The widest cells (sweep-warm's
// wall and CPU at 13-19% with its grid pinned, world-cold's wall at 15%,
// fleet-paced's RSS at 13%) leave room for nothing under the contract's
// ceiling; the finer per-workload bounds below are what -aa and -compare
// apply.
const contractBound = 0.25

// response binds the contract's response_s to the measurement each
// workload's user waits on, converted to seconds. It is never a second
// measurement and never stored beside its source, so no reading is judged
// twice.
var response = map[string]struct {
	metric  string
	seconds func(v float64) float64
	what    string
}{
	"world-cold":     {"wall_s", func(v float64) float64 { return v }, "command to complete report"},
	"sweep-warm":     {"wall_s", func(v float64) float64 { return v }, "command to complete grid report"},
	"serve-saturate": {"ingest_events_per_s", func(v float64) float64 { return 1e6 / v }, "a million events from first byte to ingested, closed loop"},
	"fleet-paced":    {"alert_visible_live_p50_ms", func(v float64) float64 { return v / 1000 }, "probe due to visible at the live rate"},
}

var endToEnd = map[string]def{
	"setup_s":    {Unit: "s", Better: "lower", Bound: 0.25, Help: "build binaries, synthesize feed, SUT healthy"},
	"response_s": {Unit: "s", Better: "lower", Help: "the wait the workload's user came for (see response)"},
	"wall_s": {Unit: "s", Better: "lower", Bound: 0.10, Help: "command to complete result (batch workloads)",
		On: map[string]float64{"world-cold": 0.20, "sweep-warm": 0.20}},
	"cpu_s": {Unit: "s", Better: "lower", Bound: 0.10, Help: "user+sys CPU of the SUT processes for the run's work",
		On: map[string]float64{"world-cold": 0.15, "sweep-warm": 0.20, "serve-saturate": 0.15, "fleet-paced": 0.15}},
	"peak_rss_mb": {Unit: "MB", Better: "lower", Bound: 0.10, Help: "peak RSS of the SUT, summed over processes that run side by side",
		On: map[string]float64{"sweep-warm": 0.20, "fleet-paced": 0.15}},

	"ingest_events_per_s": {Unit: "ev/s", Better: "higher", Bound: 0.10, Help: "first byte to every shard having ingested all sent events, closed loop",
		On: map[string]float64{"serve-saturate": 0.20, "fleet-paced": 0.15}},
	"recovery_s":                {Unit: "s", Better: "lower", Bound: 0.15, Help: "kill -9 to serving again with the whole WAL replayed"},
	"alert_visible_live_p50_ms": {Unit: "ms", Better: "lower", Bound: 0.15, Help: "probe due to visible at the live rate"},
	"alert_visible_p50_ms":      {Unit: "ms", Better: "lower", Bound: 0.25, Help: "probe due to visible at the busy rate"},
	"alert_visible_p99_ms":      {Unit: "ms", Better: "lower", Bound: 0.25, Help: "same, highest supported percentile up to p99 over the busy segments"},
	"rate_ok_events_per_s":      {Unit: "ev/s", Better: "higher", Bound: 0.10, Help: "highest ladder rate meeting the latency limit without a growing backlog; a regression is a dropped rung"},
	"query_p50_ms": {Unit: "ms", Better: "lower", Bound: 0.10, Help: "light query mix under ingest",
		On: map[string]float64{"serve-saturate": 0.25}},
	"query_p99_ms": {Unit: "ms", Better: "lower", Bound: 0.20, Help: "same, highest supported percentile up to p99",
		On: map[string]float64{"fleet-paced": 0.25}},
	"alerts_full_fetch_ms": {Unit: "ms", Better: "lower", Bound: 0.20, Help: "cold merged /alerts through the frontend after a version bump"},
	"failed_ops_share":     {Unit: "ratio", Better: "lower", Help: "failed operations / attempted; any non-zero value is a failure"},
}

// layer is a per-layer metric: what it measures and which end-to-end
// metric a change to it should move.
type layer struct {
	Name, Unit, Better string
	Moves              string
}

// perLayer is the traced run's output, in print order. The layer is the
// package name before the dot.
var perLayer = []layer{
	{"simnet.deliveries", "count", "lower", "wall_s, cpu_s on world-cold"},
	{"simnet.us_per_delivery", "us", "lower", "wall_s, cpu_s on world-cold; flat elsewhere"},
	{"simnet.alloc_bytes_per_delivery", "B", "lower", "peak_rss_mb, cpu_s on world-cold"},
	{"simnet.allocs_per_delivery", "count", "lower", "cpu_s on world-cold"},
	{"simnet.gc_cpu_share", "ratio", "lower", "cpu_s on world-cold"},
	{"gen.build_s", "s", "lower", "wall_s on world-cold; setup_s on both serving workloads"},
	{"gen.churn_s", "s", "lower", "wall_s on world-cold"},
	{"gen.snapshot_build_s", "s", "lower", "wall_s on sweep-warm only"},
	{"gen.fork_ms", "ms", "lower", "wall_s on sweep-warm only"},
	{"scenario.cell_p50_ms", "ms", "lower", "wall_s on sweep-warm"},
	{"scenario.cell_max_ms", "ms", "lower", "wall_s on sweep-warm (the straggler sets the end)"},
	{"scenario.snapshot_builds", "count", "lower", "wall_s on sweep-warm"},
	{"scenario.snapshot_forks", "count", "lower", "wall_s on sweep-warm"},
	{"collector.write_mrt_s", "s", "lower", "setup_s on both serving workloads (feed capture); genesis, not worms"},
	{"collector.mrt_bytes", "B", "lower", "setup_s on both serving workloads"},
	{"collector.records", "count", "lower", "wall_s on world-cold (core.load and core.analyze scale with it)"},
	{"core.load_s", "s", "lower", "wall_s on world-cold"},
	{"core.analyze_s", "s", "lower", "wall_s on world-cold"},
	{"core.render_s", "s", "lower", "wall_s on world-cold"},
	{"mrt.decode_ns_per_event", "ns", "lower", "ingest_events_per_s on serve-saturate, twice over on fleet-paced; rate_ok_events_per_s"},
	{"mrt.decode_allocs_per_event", "count", "lower", "cpu_s on both serving workloads"},
	{"durable.encode_ns_per_event", "ns", "lower", "ingest_events_per_s on both serving workloads"},
	{"durable.wal_append_ns_per_event", "ns", "lower", "ingest_events_per_s on both serving workloads"},
	{"durable.wal_bytes_per_event", "B", "lower", "recovery_s on serve-saturate"},
	{"durable.store_ingest_ns_per_event", "ns", "lower", "ingest_events_per_s on both serving workloads"},
	{"durable.store_overhead_ns_per_event", "ns", "lower", "ingest_events_per_s on both serving workloads"},
	{"durable.owner_skipped_share", "ratio", "lower", "cpu_s on fleet-paced (work decoded and thrown away)"},
	{"durable.snapshot_ms", "ms", "lower", "alert_visible_p99_ms, rate_ok_events_per_s on fleet-paced; not alert_visible_p50_ms"},
	{"durable.snapshot_bytes", "B", "lower", "alert_visible_p99_ms on fleet-paced"},
	{"durable.recovery_records_per_s", "1/s", "higher", "recovery_s on serve-saturate"},
	{"watch.ingest_ns_per_event", "ns", "lower", "ingest_events_per_s on both serving workloads"},
	{"watch.allocs_per_event", "count", "lower", "cpu_s on both serving workloads"},
	{"watch.alerts", "count", "lower", "alerts_full_fetch_ms on fleet-paced"},
	{"watch.tracked_prefixes", "count", "lower", "peak_rss_mb on both serving workloads"},
	{"semantics.mirror_ns_per_event", "ns", "lower", "ingest_events_per_s on serve-saturate only (fleet-paced runs -dict=false)"},
	{"semantics.snapshot_ms", "ms", "lower", "query_p50_ms on serve-saturate"},
	{"serve.render_alerts_ms", "ms", "lower", "alerts_full_fetch_ms on fleet-paced"},
	{"serve.alerts_bytes", "B", "lower", "alerts_full_fetch_ms on fleet-paced"},
	{"serve.cached_get_us", "us", "lower", "query_p50_ms on both serving workloads"},
	{"serve.prefix_get_us", "us", "lower", "query_p50_ms, alert_visible_p50_ms (probe polls)"},
	{"serve.frontend_merge_ms", "ms", "lower", "alerts_full_fetch_ms on fleet-paced"},
	{"serve.frontend_revalidate_us", "us", "lower", "query_p50_ms, query_p99_ms on fleet-paced"},
	{"serve.rangemap_skew", "ratio", "lower", "ingest_events_per_s on fleet-paced (the fuller shard sets the pace)"},
	{"trace.world_unattributed_share", "ratio", "lower", "none: share of the untraced worms wall the world spans fall short of"},
	{"trace.serving_unattributed_share", "ratio", "lower", "none: share of Store.Ingest the isolated stages do not explain"},
	{"trace.overhead_share", "ratio", "lower", "none: how far the traced world spans overshoot the untraced binary's whole wall"},
}

// Metric is one reported value.
type Metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	// Bound is the regression bound (end-to-end metrics only).
	Bound float64 `json:"bound,omitempty"`
	// Samples is how many observations the value summarizes, and
	// Percentile the percentile actually reported when the name says
	// p50/p99 (a short run reports the highest one its samples support).
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
	// Repeats holds the inner-repeat or per-segment values the median was
	// taken over.
	Repeats []float64 `json:"repeats,omitempty"`
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string `json:"moves,omitempty"`
}

// BudgetRow is one line of a traced path budget.
type BudgetRow struct {
	Path  string  `json:"path"`
	Layer string  `json:"layer"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Share float64 `json:"share"`
}

// Machine fingerprints where a result was measured.
type Machine struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	// WALFS is the filesystem type under the daemons' WAL directories.
	WALFS string `json:"wal_fs,omitempty"`
}

// Result is one run of one workload.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	// Smoke marks a shrunken run whose numbers are never comparable.
	Smoke     bool     `json:"smoke"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []Metric `json:"metrics"`
	// Counters are the boundary counts scraped from the live SUT and the
	// load generator's own accounting (untraced runs).
	Counters []Metric          `json:"counters,omitempty"`
	Budget   []BudgetRow       `json:"budget,omitempty"`
	Config   map[string]string `json:"config,omitempty"`
	Machine  Machine           `json:"machine"`
	// TraceFile is where the traced run wrote its obs.Trace JSON.
	TraceFile string `json:"trace_file,omitempty"`
}

func (r *Result) metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// set records an end-to-end metric with its definition attached.
func (r *Result) set(name string, value float64, opts ...func(*Metric)) {
	d, ok := endToEnd[name]
	if !ok {
		panic("bench: undefined end-to-end metric " + name)
	}
	m := Metric{Name: name, Value: value, Unit: d.Unit, Better: d.Better, Bound: d.bound(r.Workload)}
	for _, o := range opts {
		o(&m)
	}
	r.Metrics = append(r.Metrics, m)
}

func repeats(xs []float64) func(*Metric) {
	return func(m *Metric) { m.Repeats = append([]float64(nil), xs...); m.Samples = len(xs) }
}

func samples(n int, pct float64) func(*Metric) {
	return func(m *Metric) { m.Samples, m.Percentile = n, pct }
}

// count records a boundary counter.
func (r *Result) count(name string, value float64, unit string) {
	r.Counters = append(r.Counters, Metric{Name: name, Value: value, Unit: unit})
}

// fail records a failed correctness check or operation.
func (r *Result) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish fills in the failure share once a workload has reported
// everything it measured.
func (r *Result) finish() {
	if !r.Traced {
		share := 0.0
		if r.Attempted > 0 {
			share = float64(r.Failed) / float64(r.Attempted)
		}
		r.set("failed_ops_share", share)
	}
	r.Correct = r.Failed == 0
	if r.Attempted < 1 {
		r.Attempted = 1
	}
}

func machine() Machine {
	b := obs.BuildInfo()
	m := Machine{GitSHA: b.GitSHA, GoVersion: b.GoVersion, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// print writes the human table: every metric by name with its unit.
func (r *Result) print(w io.Writer) {
	label := ""
	if r.Smoke {
		label = "  [SMOKE: not comparable]"
	}
	kind := "end to end"
	if r.Traced {
		kind = "per layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%d: %s%s ==\n", r.Workload, r.Seed, r.Seconds, kind, label)
	row := func(m Metric) {
		extra := ""
		if m.Samples > 0 {
			extra = fmt.Sprintf("  n=%d", m.Samples)
		}
		if m.Percentile > 0 {
			extra += fmt.Sprintf(" p%g", m.Percentile)
		}
		if len(m.Repeats) > 1 {
			extra += fmt.Sprintf("  repeats=%.4g", m.Repeats)
		}
		if m.Bound > 0 {
			extra += fmt.Sprintf("  bound=%g", m.Bound)
		}
		if m.Moves != "" {
			extra += "  -> " + m.Moves
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, extra)
	}
	for _, m := range r.Metrics {
		row(m)
	}
	if src := response[r.Workload]; !r.Traced {
		if m, ok := r.metric(src.metric); ok {
			fmt.Fprintf(w, "  %-38s %14.6g %-6s  contract name for %s: %s\n", "response_s", src.seconds(m.Value), "s", src.metric, src.what)
		}
	}
	if len(r.Counters) > 0 {
		fmt.Fprintln(w, "  -- counters (SUT scrape, load generator) --")
		for _, m := range r.Counters {
			row(m)
		}
	}
	if len(r.Budget) > 0 {
		fmt.Fprintln(w, "  -- budget --")
		for _, b := range r.Budget {
			fmt.Fprintf(w, "  %-10s %-34s %14.6g %-6s %6.1f%%\n", b.Path, b.Layer, b.Value, b.Unit, b.Share*100)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(r.Config)) {
		fmt.Fprintf(w, "  # %s: %s\n", k, r.Config[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// contractLine is the last line of standard output: exactly the keys the
// benchmark contract names, with the end-to-end metrics on an untraced
// run and the per-layer metrics on a traced one.
func (r *Result) contractLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	var want []string
	if r.Traced {
		for _, l := range perLayer {
			want = append(want, l.Name)
		}
	} else {
		want = contract
	}
	for _, name := range want {
		m, ok := r.metric(name)
		if src := response[r.Workload]; name == "response_s" {
			if m, ok = r.metric(src.metric); ok {
				m.Value, m.Unit = src.seconds(m.Value), endToEnd[name].Unit
			}
		}
		if !ok {
			return "", fmt.Errorf("%s did not report %s", r.Workload, name)
		}
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// writeFile saves results as the JSON document -compare reads.
func writeFile(path string, results []*Result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readFile(path string) ([]*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*Result
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}
