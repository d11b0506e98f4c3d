// Package scenario is the attack-scenario engine: a registry of named,
// self-describing attack scenarios (the paper's §5–§7 taxonomy, Table 3)
// and the one grid runner (RunCells) that fans a scenario grid —
// topology scale × generator seed × community set × simulation-engine
// workers — over the worker pool shared with the measurement pipeline,
// under sweeps (SweepOpts) and release suites (internal/suite) alike.
//
// The package sits between the simulation stack and the CLIs: scenario
// implementations live where the lab machinery lives (internal/attack)
// and register themselves here; cmd/attacklab and the other binaries are
// thin clients of the registry. Scenario results and sweep reports are
// deterministic: a fixed (scale, seed, community set, engine workers)
// cell produces a bit-identical Result regardless of how many harness
// workers execute the sweep.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bgpworms/internal/gen"
	"bgpworms/internal/simnet"
)

// Difficulty grades a scenario as the paper's Table 3 does.
type Difficulty int

// Difficulty levels.
const (
	Easy Difficulty = iota
	Medium
	Hard
)

// String names the difficulty.
func (d Difficulty) String() string {
	switch d {
	case Easy:
		return "easy"
	case Medium:
		return "medium"
	case Hard:
		return "hard"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the difficulty as its name.
func (d Difficulty) MarshalJSON() ([]byte, error) { return json.Marshal(d.String()) }

// Result is one Table 3 row with evidence.
type Result struct {
	Scenario   string     `json:"scenario"`
	Hijack     bool       `json:"hijack"`
	Success    bool       `json:"success"`
	Difficulty Difficulty `json:"difficulty"`
	Insights   []string   `json:"insights,omitempty"`
	Evidence   []string   `json:"evidence,omitempty"`
}

// Notef appends a formatted evidence line.
func (r *Result) Notef(format string, args ...any) {
	r.Evidence = append(r.Evidence, fmt.Sprintf(format, args...))
}

// ParamKind types a scenario parameter.
type ParamKind int

// Parameter kinds.
const (
	KindBool ParamKind = iota
	KindInt
	KindString
)

// String names the kind.
func (k ParamKind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the kind as its name.
func (k ParamKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Param describes one typed scenario parameter.
type Param struct {
	Name    string    `json:"name"`
	Kind    ParamKind `json:"kind"`
	Default string    `json:"default"`
	Help    string    `json:"help"`
}

// Values carries parameter overrides as strings; Validate checks them
// against the scenario's typed declarations before Run parses them.
type Values map[string]string

// Expectation is the scenario's expected Table-3 outcome per variant. A
// variant the scenario cannot run is false: Hijack when there is no
// "hijack" parameter, Plain when the scenario is inherently a hijack
// (its Results always carry Hijack=true, e.g. a route leak).
type Expectation struct {
	Plain  bool `json:"plain"`
	Hijack bool `json:"hijack"`
}

// Thresholds declares detector-quality bounds a release harness gates a
// scenario run on. The zero value gates nothing; nil pointer fields are
// "not declared". The scenario registry exposes the type so suites
// (internal/suite) and scenario declarations speak the same gate
// vocabulary as the Expectation above speaks Table-3 outcomes.
type Thresholds struct {
	// MinPrecision and MinRecall bound the micro-averaged detector
	// precision/recall of an evaluated replay (watch.EvalScenario).
	MinPrecision *float64 `json:"min_precision,omitempty"`
	MinRecall    *float64 `json:"min_recall,omitempty"`
	// MaxNoiseAlerts caps the per-run count of alerts the ground truth
	// did not require (false-positive alert volume).
	MaxNoiseAlerts *int `json:"max_noise_alerts,omitempty"`
	// MaxVariance bounds the cross-seed population variance of
	// precision and recall within one suite cell group.
	MaxVariance *float64 `json:"max_variance,omitempty"`
}

// Validate rejects thresholds outside their meaningful ranges.
func (t Thresholds) Validate() error {
	if t.MinPrecision != nil && (*t.MinPrecision < 0 || *t.MinPrecision > 1) {
		return fmt.Errorf("min_precision %v outside [0,1]", *t.MinPrecision)
	}
	if t.MinRecall != nil && (*t.MinRecall < 0 || *t.MinRecall > 1) {
		return fmt.Errorf("min_recall %v outside [0,1]", *t.MinRecall)
	}
	if t.MaxNoiseAlerts != nil && *t.MaxNoiseAlerts < 0 {
		return fmt.Errorf("max_noise_alerts %d negative", *t.MaxNoiseAlerts)
	}
	if t.MaxVariance != nil && *t.MaxVariance < 0 {
		return fmt.Errorf("max_variance %v negative", *t.MaxVariance)
	}
	return nil
}

// RunFunc executes a scenario in a context.
type RunFunc func(*Context) (*Result, error)

// Scenario is a named, self-describing attack.
type Scenario struct {
	// Name is the registry key (kebab-case).
	Name string `json:"name"`
	// Title is the human-readable Table 3 row label.
	Title string `json:"title"`
	// Section cites the paper section the scenario reproduces or extends.
	Section string `json:"section"`
	// Summary is a one-line description for catalogs.
	Summary string `json:"summary"`
	// Difficulty is the Table 3 grading.
	Difficulty Difficulty `json:"difficulty"`
	// Expected is the Table 3 ground truth the run is scored against.
	Expected Expectation `json:"expected"`
	// Params declares the scenario's typed parameters.
	Params []Param `json:"params,omitempty"`
	// Run executes the scenario. It must be deterministic for a fixed
	// Context.
	Run RunFunc `json:"-"`
	// ManagesWorlds marks scenarios that build their own worlds (several
	// per run, or with modified generator parameters). Warm harnesses
	// skip snapshot provisioning for them: Context.Warm would go unused.
	ManagesWorlds bool `json:"manages_worlds,omitempty"`
}

// ExpectedFor returns the declared Table-3 expectation for the variant
// that ran: the hijack expectation when the result carries Hijack, the
// plain expectation otherwise.
func (s *Scenario) ExpectedFor(hijack bool) bool {
	if hijack {
		return s.Expected.Hijack
	}
	return s.Expected.Plain
}

// Param returns the declared parameter by name.
func (s *Scenario) Param(name string) (Param, bool) {
	for _, p := range s.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Validate rejects unknown parameter names and values that do not parse
// as the declared kind.
func (s *Scenario) Validate(v Values) error {
	for name, raw := range v {
		p, ok := s.Param(name)
		if !ok {
			return fmt.Errorf("scenario %s: unknown parameter %q", s.Name, name)
		}
		switch p.Kind {
		case KindBool:
			if _, err := strconv.ParseBool(raw); err != nil {
				return fmt.Errorf("scenario %s: parameter %s=%q is not a bool", s.Name, name, raw)
			}
		case KindInt:
			if _, err := strconv.Atoi(raw); err != nil {
				return fmt.Errorf("scenario %s: parameter %s=%q is not an int", s.Name, name, raw)
			}
		}
	}
	return nil
}

// Shared run defaults: a single run (Context.withDefaults) and a sweep
// cell (Grid.withDefaults) fill empty dimensions from the same values,
// so the two entry points stay bit-identical for identical cells.
const (
	// DefaultScale is the gen preset used when none is given.
	DefaultScale = "tiny"
	// DefaultVPs is the Atlas vantage-point count used when none is given.
	DefaultVPs = 12
	// DefaultCommunitySet is the registry slice used when none is given.
	DefaultCommunitySet = "verified"
)

// CommunitySets names the registry slices a candidate-driven scenario
// can draw from; a grid or a run naming any other is refused.
var CommunitySets = []string{"verified", "likely", "all"}

func checkCommunitySet(name string) error {
	if !slices.Contains(CommunitySets, name) {
		return fmt.Errorf("scenario: unknown community set %q (want %s)", name, strings.Join(CommunitySets, "|"))
	}
	return nil
}

// Context carries everything a scenario run needs. The zero value is
// usable: defaults are a tiny Internet, DefaultVPs vantage points, and
// the DefaultCommunitySet registry slice.
type Context struct {
	// Gen sizes and seeds the synthetic Internet the scenario builds.
	// Gen.Workers selects the simnet engine parallelism per cell.
	Gen gen.Params
	// VPs is the Atlas vantage-point count.
	VPs int
	// CommunitySet names the registry slice candidate-driven scenarios
	// sweep: one of CommunitySets.
	CommunitySet string
	// Values overrides scenario parameters.
	Values Values
	// Tap, when non-nil, observes every update delivery in the
	// scenario's simulated network — world construction included (it is
	// plumbed through Gen.Tap, surviving the scale default). The watch
	// engine attaches here to detect the attack it is replaying.
	Tap simnet.UpdateTap
	// World, when non-nil, is invoked with the scenario's built
	// synthetic Internet as soon as it exists (and before the attack
	// runs). Evaluation harnesses capture it to read ground truth —
	// e.g. the community dictionary the semantics engine is scored
	// against. Scenarios that build several worlds invoke it per world.
	World func(*gen.Internet)
	// Warm, when non-nil, is a frozen world snapshot the scenario forks
	// instead of building from scratch. The snapshot must have been
	// built with exactly this context's generator parameters
	// (gen.Snapshot.Compatible) — a mismatch is a loud error, never a
	// silent rebuild. World receives the forked Internet. A Tap needs a
	// snapshot that recorded its construction stream
	// (gen.BuildSnapshotForReplay); it then sees that stream replayed,
	// as on a scratch build. On a stream-free snapshot a Tap is an
	// error.
	Warm *gen.Snapshot

	scenario *Scenario
	// shared builds or returns the warm cache's world for the cell's
	// coordinates (WarmCache.Context sets it).
	shared func() (*gen.Snapshot, error)
}

// Shared returns the frozen world the provisioning WarmCache holds for
// the cell's (scale, seed, engine workers), building it on first use:
// the world Warm forks, and for a ManagesWorlds cell, which forks none,
// the one it would have forked. A context no cache provisioned has none.
func (c *Context) Shared() (*gen.Snapshot, error) {
	if c.shared == nil {
		return nil, errors.New("scenario: the context was not provisioned by a warm cache")
	}
	return c.shared()
}

func (c *Context) withDefaults(s *Scenario) *Context {
	out := *c
	out.scenario = s
	if out.Gen.Stubs == 0 {
		out.Gen, _ = gen.Preset(DefaultScale)
	}
	if out.VPs == 0 {
		out.VPs = DefaultVPs
	}
	if out.CommunitySet == "" {
		out.CommunitySet = DefaultCommunitySet
	}
	if out.Tap != nil {
		out.Gen.Tap = out.Tap
	}
	return &out
}

func (c *Context) raw(name string) (string, bool) {
	if v, ok := c.Values[name]; ok {
		return v, true
	}
	if c.scenario != nil {
		if p, ok := c.scenario.Param(name); ok {
			return p.Default, true
		}
	}
	return "", false
}

// Bool reads a bool parameter, falling back to the declared default.
func (c *Context) Bool(name string) bool {
	raw, ok := c.raw(name)
	if !ok {
		return false
	}
	v, _ := strconv.ParseBool(raw)
	return v
}

// Int reads an int parameter, falling back to the declared default.
func (c *Context) Int(name string) int {
	raw, ok := c.raw(name)
	if !ok {
		return 0
	}
	v, _ := strconv.Atoi(raw)
	return v
}

// String reads a string parameter, falling back to the declared default.
func (c *Context) String(name string) string {
	raw, _ := c.raw(name)
	return raw
}

// Run executes the named registered scenario. A nil ctx runs with
// defaults (tiny Internet, 12 VPs, verified community set).
func Run(name string, ctx *Context) (*Result, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	if ctx == nil {
		ctx = &Context{}
	}
	if err := s.Validate(ctx.Values); err != nil {
		return nil, err
	}
	ctx = ctx.withDefaults(s)
	if err := checkCommunitySet(ctx.CommunitySet); err != nil {
		return nil, err
	}
	return s.Run(ctx)
}
