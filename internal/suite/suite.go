// Package suite is the statistical release-gate harness: declarative
// scenario suites (checked-in JSON under suites/) whose entries expand
// as scenario.Grids and run on the scenario layer's grid runner
// (scenario.RunCells) through the watch/semantics evaluation loops,
// cross-seed variance gating with per-detector assertion thresholds, a
// detector-vs-scenario confusion matrix, and a paired A/B decision rule
// (Compare) that two detector configurations are judged by before one
// may replace the other.
//
// A suite is the repo's analogue of the paper's Table 3 discipline:
// every registered attack scenario declares what must be detected, the
// suite pins how well, and CI refuses changes that fall below the pins
// or whose quality varies across seeds more than the declared bound.
// Reports are deterministic: the same suite, seeds, and arm produce
// byte-identical suite_report.json regardless of harness worker count.
package suite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// MinSeeds is the smallest seed list a suite cell may declare: detector
// quality asserted on fewer repetitions is a point estimate, not a
// gate (the variance bound needs spread to measure).
const MinSeeds = 3

// DefaultMaxVariance bounds the cross-seed population variance of
// precision and recall within a cell group when neither the suite nor
// the entry declares one. 0.0025 is a standard deviation of 5 points
// on a [0,1] ratio — far looser than the zero variance healthy
// scenarios show, tight enough to catch seed-dependent flapping.
const DefaultMaxVariance = 0.0025

// Arm names one detector configuration under evaluation: which
// detectors run, and whether a community dictionary is trained (per
// scale and seed, on a clean churn baseline) to back the
// dictionary-aware pair. The zero Arm is the default: the stateless
// detectors, no dictionary.
type Arm struct {
	Name string `json:"name,omitempty"`
	// Detectors are watch.ResolveDetectors names (the dict pair's only
	// when Dict is set); empty means its default set.
	Detectors []string `json:"detectors,omitempty"`
	// Dict trains a per-(scale,seed) community dictionary on a clean
	// world plus a month of churn and binds the dictionary-aware
	// detectors to it.
	Dict bool `json:"dict,omitempty"`
}

// label names the arm in reports.
func (a *Arm) label() string {
	if a == nil {
		return "default"
	}
	if a.Name != "" {
		return a.Name
	}
	if a.Dict {
		return "dict"
	}
	return "custom"
}

// resolve names the arm's detectors through watch.ResolveDetectors,
// bound to dict: unknown names and dict-pair names without a dictionary
// arm are errors. A nil dict under a dictionary arm stands in for the
// dictionary each cell trains, so the list can be checked and named
// before any training runs.
func (a *Arm) resolve(dict semantics.Provider) ([]watch.Detector, error) {
	var names []string
	if a != nil {
		names = a.Detectors
		if a.Dict && dict == nil {
			dict = untrained
		}
	}
	dets, err := watch.ResolveDetectors(names, dict)
	if err != nil {
		return nil, fmt.Errorf("arm %s: %w", a.label(), err)
	}
	return dets, nil
}

// untrained is the empty dictionary validation binds detectors to: only
// their names are read.
var untrained = &semantics.Snapshot{}

// DetectorGate is one per-detector assertion inside a suite entry.
type DetectorGate struct {
	// MustFire requires at least one alert from this detector in every
	// cell of the entry.
	MustFire bool `json:"must_fire,omitempty"`
	// MaxFired caps this detector's alert count per cell.
	MaxFired *int `json:"max_fired,omitempty"`
}

// DictGate asserts dictionary-inference quality for an entry: the
// evaluated replay also folds a dictionary, which is scored against the
// generator's ground truth (watch.EvalScenario with Config.Semantics).
type DictGate struct {
	MinPrecision     *float64 `json:"min_precision,omitempty"`
	MinRecall        *float64 `json:"min_recall,omitempty"`
	MinClassAccuracy *float64 `json:"min_class_accuracy,omitempty"`
}

func (g *DictGate) validate() error {
	for name, v := range map[string]*float64{
		"min_precision": g.MinPrecision, "min_recall": g.MinRecall,
		"min_class_accuracy": g.MinClassAccuracy,
	} {
		if v != nil && (*v < 0 || *v > 1) {
			return fmt.Errorf("dict.%s %v outside [0,1]", name, *v)
		}
	}
	return nil
}

// Defaults fill entry dimensions left empty, so a suite states its
// grid once.
type Defaults struct {
	Scales       []string `json:"scales,omitempty"`
	Seeds        []int64  `json:"seeds,omitempty"`
	CommunitySet string   `json:"community_set,omitempty"`
	// MaxVariance is the suite-wide cross-seed variance bound
	// (DefaultMaxVariance when nil).
	MaxVariance *float64 `json:"max_variance,omitempty"`
}

// Entry is one suite row: a registered scenario, the grid it runs on,
// and the gates its runs must clear.
type Entry struct {
	// Scenario is the registry name (internal/attack registrations).
	Scenario string `json:"scenario"`
	// Scales / Seeds / CommunitySet fan the cell grid; empty dimensions
	// inherit the suite defaults.
	Scales       []string `json:"scales,omitempty"`
	Seeds        []int64  `json:"seeds,omitempty"`
	CommunitySet string   `json:"community_set,omitempty"`
	// Params are fixed scenario parameter overrides for every cell.
	Params map[string]string `json:"params,omitempty"`
	// Expect overrides the scenario's declared Table-3 expectation
	// (rarely needed; nil gates against the registry declaration).
	Expect *bool `json:"expect,omitempty"`
	// Thresholds gate the evaluated replay's micro precision/recall,
	// noise-alert volume, and cross-seed variance.
	scenario.Thresholds
	// Detectors are per-detector assertions, keyed by detector name.
	Detectors map[string]DetectorGate `json:"detectors,omitempty"`
	// Dict, when set, additionally scores dictionary inference over the
	// cell and gates its quality.
	Dict *DictGate `json:"dict,omitempty"`
}

// Suite is the checked-in declarative format.
type Suite struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Arm is the detector configuration the suite runs under when the
	// caller does not override one.
	Arm      *Arm     `json:"arm,omitempty"`
	Defaults Defaults `json:"defaults,omitempty"`
	Entries  []Entry  `json:"entries"`
}

// Parse decodes and validates a suite. Unknown fields, unregistered
// scenarios, short or duplicated seed lists, unparsable parameters,
// unknown community sets, and out-of-range thresholds are all errors —
// a malformed suite must never reach the gate looking like a passing
// one.
func Parse(data []byte) (*Suite, error) {
	var s Suite
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("suite: trailing data after suite object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the suite against the detector catalog and, through
// each entry's scenario.Grid, the scenario registry, the community sets
// and the simulation preset catalog.
func (s *Suite) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("suite: missing name")
	}
	if len(s.Entries) == 0 {
		return fmt.Errorf("suite %s: no entries", s.Name)
	}
	if _, err := s.Arm.resolve(nil); err != nil {
		return fmt.Errorf("suite %s: %w", s.Name, err)
	}
	if s.Defaults.MaxVariance != nil && *s.Defaults.MaxVariance < 0 {
		return fmt.Errorf("suite %s: defaults.max_variance %v negative", s.Name, *s.Defaults.MaxVariance)
	}
	for i := range s.Entries {
		if err := s.validateEntry(&s.Entries[i]); err != nil {
			return fmt.Errorf("suite %s: entry %d (%s): %w", s.Name, i, s.Entries[i].Scenario, err)
		}
	}
	return nil
}

func (s *Suite) validateEntry(e *Entry) error {
	g := s.grid(e)
	if len(g.Seeds) < MinSeeds {
		return fmt.Errorf("%d seed(s); a gated cell needs at least %d for the variance bound", len(g.Seeds), MinSeeds)
	}
	if _, err := g.Cells(); err != nil {
		return err
	}
	if err := e.Thresholds.Validate(); err != nil {
		return err
	}
	// A gate may name any detector, the dictionary pair included: the
	// arm it runs under can be overridden at run time.
	if _, err := watch.ResolveDetectors(sortedKeys(e.Detectors), untrained); err != nil {
		return err
	}
	for name, g := range e.Detectors {
		if g.MaxFired != nil && *g.MaxFired < 0 {
			return fmt.Errorf("detector %s: max_fired %d negative", name, *g.MaxFired)
		}
		if g.MustFire && g.MaxFired != nil && *g.MaxFired == 0 {
			return fmt.Errorf("detector %s: must_fire with max_fired 0 can never pass", name)
		}
	}
	if e.Dict != nil {
		if err := e.Dict.validate(); err != nil {
			return err
		}
	}
	return nil
}

// grid is the entry's cell grid: each dimension the entry leaves empty
// comes from the suite defaults, then from the scenario layer's. Its
// cells run in canonical order (scale, then seed).
func (s *Suite) grid(e *Entry) scenario.Grid {
	g := scenario.Grid{
		Scenarios: []string{e.Scenario}, Scales: e.Scales, Seeds: e.Seeds,
		Values: scenario.Values(e.Params),
	}
	if len(g.Scales) == 0 {
		g.Scales = s.Defaults.Scales
	}
	if len(g.Seeds) == 0 {
		g.Seeds = s.Defaults.Seeds
	}
	set := e.CommunitySet
	if set == "" {
		set = s.Defaults.CommunitySet
	}
	if set != "" {
		g.CommunitySets = []string{set}
	}
	return g
}

// maxVariance resolves the variance bound for an entry.
func (s *Suite) maxVariance(e *Entry) float64 {
	if e.MaxVariance != nil {
		return *e.MaxVariance
	}
	if s.Defaults.MaxVariance != nil {
		return *s.Defaults.MaxVariance
	}
	return DefaultMaxVariance
}

// Scenarios returns the sorted, deduplicated scenario names the suite
// covers (the registry-coverage invariant reads it).
func (s *Suite) Scenarios() []string {
	set := map[string]bool{}
	for i := range s.Entries {
		set[s.Entries[i].Scenario] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
