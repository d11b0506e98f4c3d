package suite

import (
	"fmt"
	"sort"
	"sync"

	"bgpworms/internal/attack"
	"bgpworms/internal/feed"
	"bgpworms/internal/obs"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// Options tune one suite execution.
type Options struct {
	// Workers is the harness parallelism (0 or negative: one per CPU).
	// Reports are bit-identical for any setting.
	Workers int
	// Arm overrides the suite's declared detector configuration.
	Arm *Arm
	// SweepOpt carries the grid runner's progress and trace hooks. The
	// trace gets one root span per cell with build/detectors/eval
	// children — the per-cell wall-time breakdown suiterun writes into
	// provenance.json. Purely observational: the report bytes are
	// identical with or without them.
	scenario.SweepOpt
}

// DictMetrics is the gateable slice of a dictionary-inference score.
type DictMetrics = semantics.ScoreSummary

// CellResult is one executed grid point with its measured quality and
// gate outcome.
type CellResult struct {
	Key          string `json:"key"`
	Scenario     string `json:"scenario"`
	Scale        string `json:"scale"`
	Seed         int64  `json:"seed"`
	CommunitySet string `json:"community_set"`
	// Success / Expected / AsExpected grade the scenario's own Table-3
	// outcome against its declaration (or the entry's override).
	Success    bool `json:"success"`
	Expected   bool `json:"expected"`
	AsExpected bool `json:"as_expected"`
	// Precision/Recall and the counts mirror watch.Metrics for the
	// evaluated replay.
	Precision   float64        `json:"precision"`
	Recall      float64        `json:"recall"`
	TP          int            `json:"tp"`
	FP          int            `json:"fp"`
	FN          int            `json:"fn"`
	Alerts      int            `json:"alerts"`
	NoiseAlerts int            `json:"noise_alerts"`
	Fired       map[string]int `json:"fired,omitempty"`
	// Dict carries inference quality when the entry gates it.
	Dict *DictMetrics `json:"dict,omitempty"`
	// Failures are this cell's gate breaches; empty means the cell
	// passed.
	Failures []string `json:"failures,omitempty"`
	Err      string   `json:"error,omitempty"`
}

// Aggregate is a cross-seed summary of one metric.
type Aggregate struct {
	Mean     float64 `json:"mean"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Variance float64 `json:"variance"`
}

func aggregate(xs []float64) Aggregate {
	a := Aggregate{Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		a.Mean += x
		if x < a.Min {
			a.Min = x
		}
		if x > a.Max {
			a.Max = x
		}
	}
	a.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - a.Mean
		a.Variance += d * d
	}
	a.Variance /= float64(len(xs))
	return a
}

// GroupResult aggregates one entry×scale group across its seeds and
// applies the variance gate.
type GroupResult struct {
	Key          string    `json:"key"`
	Scenario     string    `json:"scenario"`
	Scale        string    `json:"scale"`
	CommunitySet string    `json:"community_set"`
	Seeds        []int64   `json:"seeds"`
	Precision    Aggregate `json:"precision"`
	Recall       Aggregate `json:"recall"`
	Noise        Aggregate `json:"noise_alerts"`
	// MaxVariance is the bound the group was gated against.
	MaxVariance float64  `json:"max_variance"`
	Failures    []string `json:"failures,omitempty"`
}

// Report is the machine-readable suite outcome (suite_report.json). It
// contains no wall-clock state: identical suite, seeds, and arm yield
// byte-identical reports (provenance lives in its own file).
type Report struct {
	Suite string `json:"suite"`
	Arm   string `json:"arm"`
	// Detectors are the resolved arm detector names, sorted.
	Detectors  []string      `json:"detectors"`
	Cells      []CellResult  `json:"cells"`
	Groups     []GroupResult `json:"groups"`
	Ran        int           `json:"ran"`
	Passed     int           `json:"passed"`
	Failed     int           `json:"failed"`
	Errored    int           `json:"errored"`
	AsExpected int           `json:"as_expected"`
	// Matrix is the detector-vs-scenario confusion matrix: total alert
	// counts per (scenario, detector) over every cell.
	Matrix map[string]map[string]int `json:"matrix"`
	// Failures flattens every cell and group gate breach, in grid
	// order, each prefixed with the breaching key.
	Failures []string `json:"failures,omitempty"`
	Pass     bool     `json:"pass"`
	// SnapshotBuilds/SnapshotForks count warm-world reuse: how many
	// frozen worlds were built and how many cell runs forked them. They
	// are deterministic for a given suite but are recorded in
	// provenance.json, not here, so the report stays focused on quality.
	SnapshotBuilds int `json:"-"`
	SnapshotForks  int `json:"-"`
}

// trainer caches clean-baseline dictionaries per (scale, seed): the
// cell's shared world forked without the attack, observed by a
// semantics tap through its replayed construction plus a month of churn
// — the CommunityWatch-style training pass the dictionary-aware
// detectors assume. Training is serialized; cells needing the same
// dictionary share one pass.
type trainer struct {
	mu    sync.Mutex
	cache map[string]*semantics.Snapshot
}

func (tr *trainer) snapshot(c *scenario.Cell, ctx *scenario.Context) (*semantics.Snapshot, error) {
	key := fmt.Sprintf("%s/%d", c.Scale, c.Seed)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.cache == nil {
		tr.cache = map[string]*semantics.Snapshot{}
	}
	if snap, ok := tr.cache[key]; ok {
		return snap, nil
	}
	world, err := ctx.Shared()
	if err != nil {
		return nil, fmt.Errorf("train dictionary %s: %w", key, err)
	}
	eng := semantics.NewEngine(semantics.Config{})
	defer eng.Close()
	l, err := attack.NewWarmLab(world, ctx.Gen.Workers, scenario.DefaultVPs, feed.Tap("", eng.Ingest))
	if err != nil {
		return nil, fmt.Errorf("train dictionary %s: %w", key, err)
	}
	if _, err := l.W.RunChurn(); err != nil {
		return nil, fmt.Errorf("train dictionary %s: %w", key, err)
	}
	snap := eng.Snapshot()
	tr.cache[key] = snap
	return snap, nil
}

// Run executes every suite cell through scenario.RunCells on tapped
// worlds — the scenario replayed once through the watch engine with the
// arm's detectors, folding a dictionary on the same replay where the
// entry gates inference — then aggregates seed groups, applies every
// gate, and folds the confusion matrix. Cells land at their grid index
// and all folds run in grid order, so the report is bit-identical across
// worker counts.
func Run(s *Suite, opt Options) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	arm := opt.Arm
	if arm == nil {
		arm = s.Arm
	}
	dets, err := arm.resolve(nil)
	if err != nil {
		return nil, err
	}
	var cells []scenario.Cell
	var results []CellResult
	var entryOf []int
	for i := range s.Entries {
		cs, err := s.grid(&s.Entries[i]).Cells()
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			out := CellResult{Scenario: c.Scenario, Scale: c.Scale, Seed: c.Seed, CommunitySet: c.CommunitySet}
			out.Key = fmt.Sprintf("%s/seed=%d", groupKey(i, &out), c.Seed)
			results = append(results, out)
			entryOf = append(entryOf, i)
		}
		cells = append(cells, cs...)
	}
	tr := &trainer{}
	builds, forks := scenario.RunCells(cells, opt.Workers, true, opt.SweepOpt, func(i int, ctx *scenario.Context, sp *obs.Span) {
		if err := s.runCell(&results[i], &s.Entries[entryOf[i]], &cells[i], ctx, arm, tr, sp); err != nil {
			cells[i].Err = err.Error()
		}
	})

	rep := &Report{Suite: s.Name, Arm: arm.label(), Cells: results, Ran: len(results)}
	rep.SnapshotBuilds, rep.SnapshotForks = builds, forks
	for _, d := range dets {
		rep.Detectors = append(rep.Detectors, d.Name())
	}
	sort.Strings(rep.Detectors)
	rep.Matrix = map[string]map[string]int{}
	for i := range results {
		c := &results[i]
		c.Err = cells[i].Err
		switch {
		case c.Err != "":
			rep.Errored++
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: error: %s", c.Key, c.Err))
		case len(c.Failures) > 0:
			rep.Failed++
			for _, f := range c.Failures {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s", c.Key, f))
			}
		default:
			rep.Passed++
		}
		if c.AsExpected {
			rep.AsExpected++
		}
		row := rep.Matrix[c.Scenario]
		if row == nil {
			row = map[string]int{}
			rep.Matrix[c.Scenario] = row
		}
		for det, n := range c.Fired {
			row[det] += n
		}
	}
	rep.Groups = s.groupCells(entryOf, results)
	for i := range rep.Groups {
		for _, f := range rep.Groups[i].Failures {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s", rep.Groups[i].Key, f))
		}
	}
	rep.Pass = len(rep.Failures) == 0
	return rep, nil
}

// groupKey identifies a cell's cross-seed aggregation group; the group
// key and the seed make the cell's Key, its pairing identity across
// suite runs and A/B arms. The fixed "delta" segment is where the
// retired engine dimension sat; it stays so reports recorded before the
// dimension went still pair cell for cell.
func groupKey(entry int, c *CellResult) string {
	return fmt.Sprintf("%d/%s/%s/delta/%s", entry, c.Scenario, c.Scale, c.CommunitySet)
}

// runCell is the suite's cell function: it fills out from one evaluated
// replay of the provisioned ctx and gates it, returning the error that
// stopped it.
func (s *Suite) runCell(out *CellResult, e *Entry, c *scenario.Cell, ctx *scenario.Context, arm *Arm, tr *trainer, sp *obs.Span) error {
	detSp := sp.Child("detectors")
	var dict semantics.Provider
	var err error
	if arm != nil && arm.Dict {
		dict, err = tr.snapshot(c, ctx)
	}
	var dets []watch.Detector
	if err == nil {
		dets, err = arm.resolve(dict)
	}
	detSp.End()
	if err != nil {
		return err
	}
	// Two engine shards: alert sets are shard-invariant, so the count
	// only trades memory for parallelism.
	cfg := watch.Config{Shards: 2, Detectors: dets}
	if e.Dict != nil {
		cfg.Semantics = semantics.NewEngine(semantics.Config{})
		defer cfg.Semantics.Close()
	}
	evalSp := sp.Child("eval")
	rep, err := watch.EvalScenario(c.Scenario, ctx, cfg)
	evalSp.End()
	if err != nil {
		return err
	}
	m := rep.Metrics()
	out.Precision, out.Recall = m.Precision, m.Recall
	out.TP, out.FP, out.FN = m.TP, m.FP, m.FN
	out.Alerts, out.NoiseAlerts, out.Fired = m.Alerts, m.NoiseAlerts, m.Fired
	out.Success = rep.Result != nil && rep.Result.Success
	if e.Expect != nil {
		out.Expected = *e.Expect
	} else if sc, ok := scenario.Get(c.Scenario); ok && rep.Result != nil {
		out.Expected = sc.ExpectedFor(rep.Result.Hijack)
	}
	out.AsExpected = out.Success == out.Expected
	if rep.Dict != nil {
		dm := rep.Dict.Score.Summary()
		out.Dict = &dm
	}
	out.Failures = s.gateCell(e, out)
	return nil
}

// gateCell applies every per-cell assertion, returning one line per
// breach.
func (s *Suite) gateCell(e *Entry, c *CellResult) []string {
	var fails []string
	if !c.AsExpected {
		fails = append(fails, fmt.Sprintf("outcome success=%v, expected %v", c.Success, c.Expected))
	}
	if e.MinPrecision != nil && c.Precision < *e.MinPrecision {
		fails = append(fails, fmt.Sprintf("precision %.4f < min %.4f", c.Precision, *e.MinPrecision))
	}
	if e.MinRecall != nil && c.Recall < *e.MinRecall {
		fails = append(fails, fmt.Sprintf("recall %.4f < min %.4f", c.Recall, *e.MinRecall))
	}
	if e.MaxNoiseAlerts != nil && c.NoiseAlerts > *e.MaxNoiseAlerts {
		fails = append(fails, fmt.Sprintf("noise alerts %d > max %d", c.NoiseAlerts, *e.MaxNoiseAlerts))
	}
	for _, name := range sortedKeys(e.Detectors) {
		g := e.Detectors[name]
		fired := c.Fired[name]
		if g.MustFire && fired == 0 {
			fails = append(fails, fmt.Sprintf("detector %s never fired", name))
		}
		if g.MaxFired != nil && fired > *g.MaxFired {
			fails = append(fails, fmt.Sprintf("detector %s fired %d > max %d", name, fired, *g.MaxFired))
		}
	}
	if e.Dict != nil && c.Dict != nil {
		if e.Dict.MinPrecision != nil && c.Dict.Precision < *e.Dict.MinPrecision {
			fails = append(fails, fmt.Sprintf("dict precision %.4f < min %.4f", c.Dict.Precision, *e.Dict.MinPrecision))
		}
		if e.Dict.MinRecall != nil && c.Dict.Recall < *e.Dict.MinRecall {
			fails = append(fails, fmt.Sprintf("dict recall %.4f < min %.4f", c.Dict.Recall, *e.Dict.MinRecall))
		}
		if e.Dict.MinClassAccuracy != nil && c.Dict.ClassAccuracy < *e.Dict.MinClassAccuracy {
			fails = append(fails, fmt.Sprintf("dict class accuracy %.4f < min %.4f", c.Dict.ClassAccuracy, *e.Dict.MinClassAccuracy))
		}
	}
	return fails
}

// groupCells folds cells into their cross-seed groups (grid order) and
// applies the variance gate.
func (s *Suite) groupCells(entryOf []int, cells []CellResult) []GroupResult {
	order := []string{}
	byKey := map[string][]int{}
	for i := range cells {
		k := groupKey(entryOf[i], &cells[i])
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	var groups []GroupResult
	for _, k := range order {
		idx := byKey[k]
		first := &cells[idx[0]]
		e := &s.Entries[entryOf[idx[0]]]
		g := GroupResult{
			Key: k, Scenario: first.Scenario, Scale: first.Scale,
			CommunitySet: first.CommunitySet, MaxVariance: s.maxVariance(e),
		}
		var ps, rs, ns []float64
		errored := false
		for _, i := range idx {
			c := &cells[i]
			g.Seeds = append(g.Seeds, c.Seed)
			if c.Err != "" {
				errored = true
				continue
			}
			ps = append(ps, c.Precision)
			rs = append(rs, c.Recall)
			ns = append(ns, float64(c.NoiseAlerts))
		}
		if errored || len(ps) == 0 {
			// Cell errors already fail the report; variance over a
			// partial group would be noise on top of noise.
			groups = append(groups, g)
			continue
		}
		g.Precision, g.Recall, g.Noise = aggregate(ps), aggregate(rs), aggregate(ns)
		if g.Precision.Variance > g.MaxVariance {
			g.Failures = append(g.Failures, fmt.Sprintf(
				"precision variance %.6f > bound %.6f (seed-dependent quality)", g.Precision.Variance, g.MaxVariance))
		}
		if g.Recall.Variance > g.MaxVariance {
			g.Failures = append(g.Failures, fmt.Sprintf(
				"recall variance %.6f > bound %.6f (seed-dependent quality)", g.Recall.Variance, g.MaxVariance))
		}
		groups = append(groups, g)
	}
	return groups
}

func sortedKeys(m map[string]DetectorGate) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
