package scenario

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bgpworms/internal/conc"
	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
	"bgpworms/internal/stats"
)

// Grid specifies a sweep or one suite entry: the cross product of every
// dimension.
// Empty dimensions default to a single canonical value, so the zero Grid
// (plus at least one scenario name, or none for "all registered") is
// runnable.
type Grid struct {
	// Scenarios are registry names; empty means every registered scenario.
	Scenarios []string `json:"scenarios"`
	// Scales are gen presets ("tiny", "small", "medium"); default tiny.
	Scales []string `json:"scales"`
	// Seeds are generator seeds; default {1}.
	Seeds []int64 `json:"seeds"`
	// EngineWorkers fans gen.Params.Workers — the simnet engine's pool
	// size per cell (0 = one per CPU); default {1}. It cannot change a
	// cell's result.
	EngineWorkers []int `json:"engine_workers"`
	// Engines exists for bench/, which passes {"delta"}, and goes when a
	// benchmark PR drops the argument: entries may only be "" or "delta".
	Engines []string `json:"engines,omitempty"`
	// CommunitySets names registry slices for candidate-driven scenarios
	// (members of the package's CommunitySets); default {"verified"}.
	CommunitySets []string `json:"community_sets"`
	// VPs is the Atlas vantage-point count per cell; 0 runs DefaultVPs.
	VPs int `json:"vps"`
	// Values applies fixed parameter overrides to every cell.
	Values Values `json:"values,omitempty"`
}

func (g Grid) withDefaults() Grid {
	if len(g.Scenarios) == 0 {
		g.Scenarios = Names()
	}
	if len(g.Scales) == 0 {
		g.Scales = []string{DefaultScale}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []int64{1}
	}
	if len(g.EngineWorkers) == 0 {
		g.EngineWorkers = []int{1}
	}
	if len(g.CommunitySets) == 0 {
		g.CommunitySets = []string{DefaultCommunitySet}
	}
	return g
}

// Cell is one grid point and, after a sweep, its outcome.
type Cell struct {
	Scenario      string  `json:"scenario"`
	Scale         string  `json:"scale"`
	Seed          int64   `json:"seed"`
	EngineWorkers int     `json:"engine_workers"`
	CommunitySet  string  `json:"community_set"`
	Result        *Result `json:"result,omitempty"`
	Err           string  `json:"error,omitempty"`
	// Expected is the scenario's declared Table-3 outcome for the
	// variant that ran (Result.Hijack selects plain vs hijack), and
	// AsExpected grades Result.Success against it, making sweep JSON
	// self-describing. Both are meaningful only when Result is set.
	Expected   bool `json:"expected"`
	AsExpected bool `json:"as_expected"`
	// Values are the grid's fixed Values this cell's scenario declares,
	// and VPs the grid's vantage-point count: what ContextFor reads
	// beside the coordinates above.
	Values Values `json:"-"`
	VPs    int    `json:"-"`
}

// Cells enumerates the grid in canonical order (scenario, scale, seed,
// engine workers, community set — outermost first) and validates every
// dimension value up front.
func (g Grid) Cells() ([]Cell, error) {
	g = g.withDefaults()
	for _, name := range g.Scenarios {
		if _, ok := Get(name); !ok {
			return nil, fmt.Errorf("scenario: grid names unknown scenario %q (have %v)", name, Names())
		}
	}
	// Fixed Values apply per cell to scenarios that declare the
	// parameter; scenarios without it ignore it, so one -p flag can
	// parameterize a mixed grid. A name no gridded scenario declares is
	// a typo and rejected up front; a declared value must parse
	// everywhere it applies.
	for name, raw := range g.Values {
		declared := false
		for _, sn := range g.Scenarios {
			s := mustGet(sn)
			if _, ok := s.Param(name); !ok {
				continue
			}
			declared = true
			if err := s.Validate(Values{name: raw}); err != nil {
				return nil, err
			}
		}
		if !declared {
			return nil, fmt.Errorf("scenario: no gridded scenario declares parameter %q", name)
		}
	}
	for _, scale := range g.Scales {
		if _, err := gen.Preset(scale); err != nil {
			return nil, err
		}
	}
	for _, set := range g.CommunitySets {
		if err := checkCommunitySet(set); err != nil {
			return nil, err
		}
	}
	for _, e := range g.Engines {
		if e != "" && e != "delta" {
			return nil, fmt.Errorf("scenario: grid names engine %q; the only engine is \"delta\"", e)
		}
	}
	var cells []Cell
	for _, name := range g.Scenarios {
		vals := declared(mustGet(name), g.Values)
		for _, scale := range g.Scales {
			for _, seed := range g.Seeds {
				for _, ew := range g.EngineWorkers {
					for _, set := range g.CommunitySets {
						cells = append(cells, Cell{
							Scenario: name, Scale: scale, Seed: seed,
							EngineWorkers: ew, CommunitySet: set,
							Values: vals, VPs: g.VPs,
						})
					}
				}
			}
		}
	}
	return cells, nil
}

// declared filters vals down to the parameters s declares (nil when
// none), so fixed Values can span a mixed-scenario grid.
func declared(s *Scenario, vals Values) Values {
	var out Values
	for name, raw := range vals {
		if _, ok := s.Param(name); ok {
			if out == nil {
				out = Values{}
			}
			out[name] = raw
		}
	}
	return out
}

func mustGet(name string) *Scenario {
	s, _ := Get(name)
	return s
}

// SweepReport folds per-cell Results into an aggregate. Cells keep grid
// order, so the report is bit-identical for any harness worker count.
type SweepReport struct {
	Cells     []Cell `json:"cells"`
	Ran       int    `json:"ran"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	Errored   int    `json:"errored"`
	// AsExpected counts cells whose Success matches the scenario's
	// declared Table-3 expectation for the variant that ran.
	AsExpected int `json:"as_expected"`
	// SnapshotBuilds and SnapshotForks account for warm-world reuse:
	// how many worlds were actually built from scratch and how many
	// cells ran on cheap forks of them.
	SnapshotBuilds int `json:"snapshot_builds,omitempty"`
	SnapshotForks  int `json:"snapshot_forks,omitempty"`
}

// warmKey identifies one shared world build: cells agreeing on every
// generator-relevant coordinate fork the same snapshot.
type warmKey struct {
	scale   string
	seed    int64
	workers int
}

// WarmCache provisions grid cells: it lazily builds at most one frozen
// world snapshot per (scale, seed, engine-workers) coordinate. Each
// snapshot is built by the first cell that needs it (under sync.Once, so
// concurrent harness workers block instead of double-building) and
// forked by the rest. RunCells declares one per run, so a suite cell
// and a sweep cell are provisioned by the same code.
type WarmCache struct {
	tapped  bool
	mu      sync.Mutex
	entries map[warmKey]*warmEntry
}

type warmEntry struct {
	once sync.Once
	snap *gen.Snapshot
	err  error
}

// NewWarmCache returns an empty cache. tapped declares whether the
// cells will run with a Context.Tap: only then does each snapshot record
// its construction stream for the forks to replay. An untapped cache's
// forks refuse a tap (gen.Snapshot.Fork).
func NewWarmCache(tapped bool) *WarmCache {
	return &WarmCache{tapped: tapped, entries: make(map[warmKey]*warmEntry)}
}

// Context builds the run context for one grid cell: ContextFor, plus
// the cell's shared frozen world unless the scenario ManagesWorlds
// (those never fork it, so provisioning one would be a wasted build).
// Either way Context.Shared reaches the cell's world.
func (wc *WarmCache) Context(c Cell) (*Context, error) {
	ctx, err := ContextFor(c)
	if err != nil {
		return nil, err
	}
	p := ctx.Gen
	ctx.shared = func() (*gen.Snapshot, error) { return wc.snapshot(c, p) }
	if s, _ := Get(c.Scenario); s != nil && !s.ManagesWorlds {
		if ctx.Warm, err = ctx.shared(); err != nil {
			return nil, err
		}
	}
	return ctx, nil
}

// snapshot returns the frozen world for the cell's coordinates, building
// it exactly once, with the construction stream only if the cache's
// cells are tapped.
func (wc *WarmCache) snapshot(c Cell, params gen.Params) (*gen.Snapshot, error) {
	key := warmKey{scale: c.Scale, seed: c.Seed, workers: c.EngineWorkers}
	wc.mu.Lock()
	e := wc.entries[key]
	if e == nil {
		e = &warmEntry{}
		wc.entries[key] = e
	}
	wc.mu.Unlock()
	e.once.Do(func() {
		if wc.tapped {
			e.snap, e.err = gen.BuildSnapshotForReplay(params)
		} else {
			e.snap, e.err = gen.BuildSnapshot(params)
		}
	})
	return e.snap, e.err
}

// Stats reports how many worlds were built and how many forks they
// served.
func (wc *WarmCache) Stats() (builds, forks int) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	for _, e := range wc.entries {
		if e.snap != nil {
			builds++
			forks += e.snap.Forks()
		}
	}
	return builds, forks
}

// SweepOpt carries a grid run's optional observability hooks. The zero
// value is a plain run; nothing here can change a report.
type SweepOpt struct {
	// Progress, when set, is called after every completed cell with the
	// done count, the grid total, the cell just finished, and its wall
	// time. Calls come concurrently from harness goroutines and in
	// completion order, not grid order — serialize in the callback.
	Progress func(done, total int, c *Cell, d time.Duration)
	// Trace, when set, records one "cell <scenario>" span per grid cell
	// (scale/seed attributes attached) with a "build" child for its
	// provisioning. Nil is a no-op.
	Trace *obs.Trace
}

// PrintProgress returns a SweepOpt.Progress that writes one
// "[i/n] scenario/scale seed=N (d)" line per finished cell to w,
// serializing the concurrent calls.
func PrintProgress(w io.Writer) func(done, total int, c *Cell, d time.Duration) {
	var mu sync.Mutex
	return func(done, total int, c *Cell, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, "[%d/%d] %s/%s seed=%d (%v)\n", done, total, c.Scenario, c.Scale, c.Seed, d.Round(time.Millisecond))
	}
}

// RunCells is the one grid runner under sweeps and suites. It calls
// fn(i, ctx, sp) for every cell over a pool of at most workers harness
// goroutines (0 or negative: one per CPU), ctx provisioned by one
// WarmCache — tapped declares whether fn taps its fork — and sp the
// cell's root span. A cell the cache cannot provision gets its Err set
// and no fn call. Cells agreeing on (scale, seed, engine workers) fork
// one frozen world, so they share no mutable state; fn writes cell i's
// outcome at index i, which keeps every fold over the cells
// bit-identical across worker counts. It returns the cache's
// builds/forks count.
func RunCells(cells []Cell, workers int, tapped bool, opt SweepOpt, fn func(i int, ctx *Context, sp *obs.Span)) (builds, forks int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	warm := NewWarmCache(tapped)
	var done atomic.Int64
	conc.Do(len(cells), workers, func(i int) {
		c := &cells[i]
		start := time.Now()
		sp := opt.Trace.Start("cell " + c.Scenario)
		sp.SetAttr("scale", c.Scale)
		sp.SetAttr("seed", strconv.FormatInt(c.Seed, 10))
		build := sp.Child("build")
		ctx, err := warm.Context(*c)
		if ctx != nil && ctx.Warm != nil {
			build.SetAttr("warm", "true")
		}
		build.End()
		if err != nil {
			c.Err = err.Error()
		} else {
			fn(i, ctx, sp)
		}
		sp.End()
		if opt.Progress != nil {
			opt.Progress(int(done.Add(1)), len(cells), c, time.Since(start))
		}
	})
	return warm.Stats()
}

// SweepOpts runs every grid cell through RunCells with Run as the cell
// function, on untapped worlds, and tallies the outcomes in grid order
// — the report is therefore bit-identical across harness worker counts.
func SweepOpts(g Grid, workers int, opt SweepOpt) (*SweepReport, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{Cells: cells, Ran: len(cells)}
	rep.SnapshotBuilds, rep.SnapshotForks = RunCells(cells, workers, false, opt, func(i int, ctx *Context, _ *obs.Span) {
		res, err := Run(cells[i].Scenario, ctx)
		if err != nil {
			cells[i].Err = err.Error()
			return
		}
		cells[i].Result = res
	})
	for i := range cells {
		c := &cells[i]
		switch {
		case c.Err != "":
			rep.Errored++
		case c.Result != nil && c.Result.Success:
			rep.Succeeded++
		default:
			rep.Failed++
		}
		if c.Result != nil {
			c.Expected = mustGet(c.Scenario).ExpectedFor(c.Result.Hijack)
			c.AsExpected = c.Result.Success == c.Expected
			if c.AsExpected {
				rep.AsExpected++
			}
		}
	}
	return rep, nil
}

// ContextFor builds the cold run context for one grid cell: the cell's
// preset seeded, its vantage-point count and its Values. WarmCache.Context
// adds the shared world to it.
func ContextFor(c Cell) (*Context, error) {
	p, err := gen.Preset(c.Scale)
	if err != nil {
		return nil, err
	}
	p.Seed = c.Seed
	p.Workers = c.EngineWorkers
	return &Context{Gen: p, VPs: c.VPs, CommunitySet: c.CommunitySet, Values: c.Values}, nil
}

// RenderSweep renders the report as a text table, one row per cell.
func RenderSweep(r *SweepReport) string {
	t := stats.NewTable("Scenario", "Scale", "Seed", "EngWorkers", "Set", "Success", "Expected", "Note")
	for i := range r.Cells {
		c := &r.Cells[i]
		note := ""
		switch {
		case c.Err != "":
			note = "error: " + c.Err
		case c.Result != nil && len(c.Result.Evidence) > 0:
			note = c.Result.Evidence[0]
		}
		success := false
		expected := "-"
		if c.Result != nil {
			success = c.Result.Success
			expected = strconv.FormatBool(c.Expected)
		}
		t.Row(c.Scenario, c.Scale, c.Seed, c.EngineWorkers, c.CommunitySet, success, expected, note)
	}
	out := t.String()
	out += fmt.Sprintf("\ncells=%d succeeded=%d failed=%d errored=%d as-expected=%d\n",
		r.Ran, r.Succeeded, r.Failed, r.Errored, r.AsExpected)
	return out
}
