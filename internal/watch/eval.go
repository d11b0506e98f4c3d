package watch

import (
	"fmt"
	"sort"

	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
)

// This file closes the detect-what-you-attack loop: a registered attack
// scenario replays through the engine via a session tap, and every
// detector is scored against the scenario's declared ground truth. With
// Config.Semantics set, the same replay closes the infer-what-you-generate
// loop too: the dictionary the shards folded is scored against the
// world's ground truth (gen.Internet.TruthDict).

// Truth declares which detectors a scenario's feed is expected to
// trigger. Must detectors count toward recall; each AnyOf group counts
// toward recall once and is satisfied when any member fires (the
// groups express detector families — the value-pattern and the
// dictionary-aware squat detectors are interchangeable evidence of the
// same squat, so an arm may carry either); May detectors are tolerated
// (no false-positive charge) because the scenario's machinery plausibly
// trips them; anything else that fires is a false positive.
type Truth struct {
	Must  []string   `json:"must"`
	AnyOf [][]string `json:"any_of,omitempty"`
	May   []string   `json:"may,omitempty"`
}

// scenarioTruth maps registry scenario names to detection ground truth.
// Probe announcements with off-path action communities legitimately
// trip community-squat and prop-distance, so most entries tolerate
// both.
var scenarioTruth = map[string]Truth{
	// §7.3: the attack is the blackhole community appearing on the
	// victim prefix. The hijack variant additionally shifts the origin.
	"rtbh": {
		Must: []string{"blackhole-onset"},
		May: []string{"community-squat", "prop-distance", "route-leak",
			DictSquatName, UnknownActionName},
	},
	// The leak re-originates a remote stub's prefix: the origin-shift
	// signature is the attack. The raise community names an off-path AS
	// until the amplifier propagates it, so squat alerts are expected
	// noise.
	"route-leak-amplification": {
		Must: []string{"route-leak"},
		May: []string{"community-squat", "prop-distance",
			DictSquatName, UnknownActionName},
	},
	// The squat announces a decoy :666 value, which the value-pattern
	// blackhole detector cannot distinguish from a real trigger — the
	// §7.6 over-counting, reproduced live. The squat itself must be
	// caught by either squat detector: the value-pattern rule or (when
	// a dictionary is trained) the dict-aware one — they are
	// interchangeable evidence, so an A/B arm may carry either.
	"blackhole-squatting": {
		Must:  []string{"blackhole-onset"},
		AnyOf: [][]string{{"community-squat", DictSquatName}},
		May:   []string{"prop-distance", UnknownActionName},
	},
	// The sweep announces real triggers and decoys alike.
	"blackhole-sweep": {
		Must: []string{"blackhole-onset"},
		May:  []string{"community-squat", "prop-distance", DictSquatName, UnknownActionName},
	},
	// The poisoning probes carry fabricated off-path communities of the
	// victim AS — squat noise is the attack itself, and either squat
	// detector counts as catching it. The scenario runs churn for a
	// realistic training baseline, so churn's RTBH episodes may raise
	// blackhole alerts too.
	"dictionary-poisoning": {
		AnyOf: [][]string{{"community-squat", DictSquatName}},
		May: []string{"blackhole-onset", "prop-distance", "route-leak",
			UnknownActionName},
	},
	// The hygiene sweep fires an RTBH attempt per filtering rate; the
	// first-hop delivery always carries the blackhole-valued trigger.
	"hygiene-filtering": {
		Must: []string{"blackhole-onset"},
		May: []string{"community-squat", "prop-distance",
			DictSquatName, UnknownActionName},
	},
}

// ScenarioTruth returns the detection ground truth for a registered
// scenario (false when the scenario makes no detection claims).
func ScenarioTruth(name string) (Truth, bool) {
	t, ok := scenarioTruth[name]
	return t, ok
}

// DetectorScore grades one detector against one replayed scenario.
type DetectorScore struct {
	Detector string `json:"detector"`
	Expected bool   `json:"expected"`
	// Fired counts the detector's alerts during the replay.
	Fired int `json:"fired"`
	TP    int `json:"tp"`
	FP    int `json:"fp"`
	FN    int `json:"fn"`
}

// EvalReport is the outcome of replaying one scenario through the
// engine: the scenario's own Table-3 result plus per-detector scores.
type EvalReport struct {
	Scenario string           `json:"scenario"`
	Result   *scenario.Result `json:"result"`
	Stats    Stats            `json:"stats"`
	Alerts   []Alert          `json:"alerts,omitempty"`
	// Known reports whether the scenario declares detection ground
	// truth; scores carry TP/FP/FN only when it does.
	Known  bool            `json:"truth_known"`
	Scores []DetectorScore `json:"scores"`
	// Precision and Recall aggregate over the scored detectors
	// (micro-averaged; 1.0 when nothing was expected or fired).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// TP/FP/FN are the micro counts behind Precision and Recall:
	// required detectors (and AnyOf groups) that fired / unexpected
	// untolerated detectors that fired / required ones that stayed
	// silent — detectors absent from the evaluated configuration
	// included, so a thinned-out arm is charged for what it cannot see.
	TP int `json:"tp"`
	FP int `json:"fp"`
	FN int `json:"fn"`
	// NoiseAlerts counts alerts the ground truth did not require:
	// everything fired by detectors outside Must and outside every
	// AnyOf group (tolerated May noise included), and — for scenarios
	// with no declared truth — every alert. It is the false-positive
	// alert volume the suite harness gates and A/B-compares.
	NoiseAlerts int `json:"noise_alerts"`
	// Dict grades dictionary inference over the same replay; it is set
	// only when the evaluated Config carried a Semantics engine.
	Dict *DictEval `json:"dict,omitempty"`
}

// DictEval is dictionary inference scored from an evaluated replay.
type DictEval struct {
	// Score grades Snapshot against the world's ground truth captured
	// after the run, so services the lab provisioned mid-scenario count
	// as truth too.
	Score semantics.Score `json:"score"`
	// Snapshot is the dictionary that was graded: every event of the
	// replay folded, read after the engine's final Flush.
	Snapshot *semantics.Snapshot `json:"-"`
}

// Metrics is the flat, structured slice of an EvalReport a suite
// harness aggregates: quality ratios, micro counts, and per-detector
// alert volume. Fired maps detector name to alert count (absent
// detectors that the truth required appear with count 0).
type Metrics struct {
	Precision   float64        `json:"precision"`
	Recall      float64        `json:"recall"`
	TP          int            `json:"tp"`
	FP          int            `json:"fp"`
	FN          int            `json:"fn"`
	Alerts      int            `json:"alerts"`
	NoiseAlerts int            `json:"noise_alerts"`
	Fired       map[string]int `json:"fired"`
}

// Metrics flattens the report for aggregation.
func (r *EvalReport) Metrics() Metrics {
	m := Metrics{
		Precision: r.Precision, Recall: r.Recall,
		TP: r.TP, FP: r.FP, FN: r.FN,
		Alerts: len(r.Alerts), NoiseAlerts: r.NoiseAlerts,
		Fired: make(map[string]int, len(r.Scores)),
	}
	for _, s := range r.Scores {
		m.Fired[s.Detector] = s.Fired
	}
	return m
}

// EvalScenario replays the named registered scenario with a lossless
// engine tap observing the full simulated update stream — world
// construction, probes, and the attack itself — then scores each
// detector against the scenario's ground truth. When cfg.Semantics is
// set, the dictionary its partials inferred from that one replay is
// scored as well (EvalReport.Dict). A nil ctx replays with scenario
// defaults; any caller Tap (and, with Semantics, World) hook on ctx is
// replaced.
func EvalScenario(name string, ctx *scenario.Context, cfg Config) (*EvalReport, error) {
	if ctx == nil {
		ctx = &scenario.Context{}
	}
	eng := NewEngine(cfg)
	defer eng.Close()
	ctx.Tap = feed.Tap("scenario:"+name, eng.Ingest)
	var world *gen.Internet
	if cfg.Semantics != nil {
		ctx.World = func(w *gen.Internet) { world = w }
	}
	res, err := scenario.Run(name, ctx)
	if err != nil {
		return nil, err
	}
	eng.Flush()
	rep := &EvalReport{Scenario: name, Result: res, Stats: eng.Stats(), Alerts: eng.Alerts()}
	if cfg.Semantics != nil {
		if world == nil {
			return nil, fmt.Errorf("watch: scenario %q never exposed its world (no dictionary ground truth)", name)
		}
		snap := cfg.Semantics.Snapshot()
		rep.Dict = &DictEval{Score: semantics.ScoreAgainst(snap, world.TruthDict()), Snapshot: snap}
	}
	truth, known := ScenarioTruth(name)
	rep.Known = known
	rep.score(eng.detectors, truth)
	return rep, nil
}

func (r *EvalReport) score(dets []Detector, truth Truth) {
	must := make(map[string]bool, len(truth.Must))
	for _, d := range truth.Must {
		must[d] = true
	}
	may := make(map[string]bool, len(truth.May))
	for _, d := range truth.May {
		may[d] = true
	}
	// AnyOf members are tolerated individually; the group is scored
	// once below.
	member := make(map[string]bool)
	for _, g := range truth.AnyOf {
		for _, d := range g {
			member[d] = true
		}
	}
	fired := make(map[string]int)
	for _, a := range r.Alerts {
		fired[a.Detector]++
	}
	var tp, fp, fn int
	have := make(map[string]bool, len(dets))
	for _, d := range dets {
		have[d.Name()] = true
		s := DetectorScore{Detector: d.Name(), Fired: fired[d.Name()]}
		if r.Known {
			s.Expected = must[s.Detector]
			switch {
			case s.Expected && s.Fired > 0:
				s.TP = 1
			case s.Expected:
				s.FN = 1
			case s.Fired > 0 && !may[s.Detector] && !member[s.Detector]:
				s.FP = 1
			}
			tp, fp, fn = tp+s.TP, fp+s.FP, fn+s.FN
		}
		r.Scores = append(r.Scores, s)
	}
	if r.Known {
		// A Must detector the evaluated configuration does not carry is
		// still a miss: the arm cannot see what the truth requires. A
		// synthetic zero-fire row keeps the gap visible in reports.
		for _, d := range truth.Must {
			if !have[d] {
				r.Scores = append(r.Scores, DetectorScore{Detector: d, Expected: true, FN: 1})
				fn++
			}
		}
		// Each AnyOf group counts once: satisfied by any member firing,
		// missed otherwise (even when no member is configured).
		for _, g := range truth.AnyOf {
			sat := false
			for _, d := range g {
				if fired[d] > 0 {
					sat = true
				}
			}
			if sat {
				tp++
			} else {
				fn++
			}
		}
	}
	sort.Slice(r.Scores, func(i, j int) bool { return r.Scores[i].Detector < r.Scores[j].Detector })
	for _, s := range r.Scores {
		if !r.Known {
			// No truth: every alert is unrequested volume.
			r.NoiseAlerts += s.Fired
			continue
		}
		if !must[s.Detector] && !member[s.Detector] {
			r.NoiseAlerts += s.Fired
		}
	}
	r.TP, r.FP, r.FN = tp, fp, fn
	r.Precision, r.Recall = 1, 1
	if tp+fp > 0 {
		r.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r.Recall = float64(tp) / float64(tp+fn)
	}
}
