package attack

import (
	"bgpworms/internal/scenario"
)

// The attack package registers every lab scenario into the
// internal/scenario registry at init, so importing attack (as
// cmd/attacklab and the other binaries do) populates the catalog.
func init() {
	for _, s := range builtinScenarios() {
		scenario.Register(s)
	}
}

// hijackParam is shared by the Table 3 scenarios that have a hijack
// variant.
var hijackParam = scenario.Param{
	Name: "hijack", Kind: scenario.KindBool, Default: "false",
	Help: "announce a victim's prefix (IRR-circumvented hijack) instead of own space",
}

// withLab builds a fresh lab from the context and hands it to run. Every
// run gets its own world — forked from the context's warm snapshot when
// one is provided, built from scratch otherwise — so registered
// scenarios are safe to execute concurrently from the sweep harness.
func withLab(run func(l *Lab, ctx *scenario.Context) (*scenario.Result, error)) scenario.RunFunc {
	return func(ctx *scenario.Context) (*scenario.Result, error) {
		l, err := newLabFor(ctx)
		if err != nil {
			return nil, err
		}
		if ctx.World != nil {
			ctx.World(l.W)
		}
		return run(l, ctx)
	}
}

// newLabFor builds the lab a context asks for: a warm fork when the
// context carries a compatible snapshot, a scratch build otherwise. An
// incompatible snapshot is an error, never a silent rebuild — the warm
// path's whole claim is equivalence with the cold one.
func newLabFor(ctx *scenario.Context) (*Lab, error) {
	if ctx.Warm != nil {
		if err := ctx.Warm.Compatible(ctx.Gen); err != nil {
			return nil, err
		}
		return NewWarmLab(ctx.Warm, ctx.Gen.Workers, ctx.VPs, ctx.Tap)
	}
	return NewLab(ctx.Gen, ctx.VPs)
}

func builtinScenarios() []*scenario.Scenario {
	return []*scenario.Scenario{
		{
			Name:       "rtbh",
			Title:      "Blackholing",
			Section:    "§7.3",
			Summary:    "trigger a remote provider's RTBH service against a prefix two AS hops away",
			Difficulty: scenario.Easy,
			Expected:   scenario.Expectation{Plain: true, Hijack: true},
			Params:     []scenario.Param{hijackParam},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				return l.RunRTBH(ctx.Bool("hijack"))
			}),
		},
		{
			Name:       "steering-localpref",
			Title:      "Traffic Steering (local pref)",
			Section:    "§7.4",
			Summary:    "depreference a path at a remote target via its customer-fallback community",
			Difficulty: scenario.Hard,
			Expected:   scenario.Expectation{Plain: true, Hijack: true},
			Params:     []scenario.Param{hijackParam},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				return l.RunSteeringLocalPref(ctx.Bool("hijack"))
			}),
		},
		{
			Name:       "steering-prepend",
			Title:      "Traffic Steering (prepending)",
			Section:    "§7.4",
			Summary:    "lengthen paths through a remote target via its prepend community (Figure 2)",
			Difficulty: scenario.Hard,
			Expected:   scenario.Expectation{Plain: true, Hijack: true},
			Params:     []scenario.Param{hijackParam},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				return l.RunSteeringPrepend(ctx.Bool("hijack"))
			}),
		},
		{
			Name:       "route-manipulation",
			Title:      "Route Manipulation",
			Section:    "§7.5",
			Summary:    "veto another IXP member's route with conflicting announce/suppress communities (Figure 9)",
			Difficulty: scenario.Medium,
			Expected:   scenario.Expectation{Plain: true, Hijack: true},
			Params:     []scenario.Param{hijackParam},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				return l.RunRouteManipulation(ctx.Bool("hijack"))
			}),
		},
		{
			Name:       "blackhole-sweep",
			Title:      "Automated Blackhole Sweep",
			Section:    "§7.6",
			Summary:    "sweep a candidate community set, diffing VP reachability per candidate, run twice for stability",
			Difficulty: scenario.Easy,
			Expected:   scenario.Expectation{Plain: true},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				cands, err := l.CommunitySet(ctx.CommunitySet)
				if err != nil {
					return nil, err
				}
				rep, err := l.BlackholeSweep(cands)
				if err != nil {
					return nil, err
				}
				res := &scenario.Result{Scenario: "Automated Blackhole Sweep", Difficulty: scenario.Easy}
				ind := rep.InducingCommunities()
				p, r := rep.PrecisionRecall()
				res.Notef("%d/%d candidates (%s set) induced VP loss; %d/%d VPs affected",
					len(ind), len(rep.Entries), ctx.CommunitySet, len(rep.AffectedVPs()), rep.TotalVPs)
				res.Notef("precision=%.2f recall=%.2f stable=%v", p, r, rep.Stable)
				res.Insights = append(res.Insights,
					"one platform and ~50 VPs suffice to verify blackhole triggers at scale (§7.6)")
				// Success: the re-run matched and inference was clean — no
				// decoy ever induced loss. Zero inducing candidates is a
				// coverage limit (no VP routes via any target), not a
				// failure.
				clean := true
				for _, e := range rep.Entries {
					if e.Induced() && !e.Verified {
						clean = false
					}
				}
				if len(ind) == 0 {
					res.Notef("no sampled VP routes via any target; coverage, not inference, limits recall")
				}
				res.Success = rep.Stable && clean
				return res, nil
			}),
		},
		{
			Name:       "propagation-distance",
			Title:      "Propagation Distance Probe",
			Section:    "§4.4/§7.2",
			Summary:    "announce a benign-tagged probe and measure how many AS hops the tag survives",
			Difficulty: scenario.Easy,
			Expected:   scenario.Expectation{Plain: true},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				return l.RunPropagationDistance()
			}),
		},
		{
			Name:       "blackhole-squatting",
			Title:      "Blackhole Squatting",
			Section:    "§7.6",
			Summary:    "tag a decoy 666-valued community of a non-RTBH AS and verify it is inert everywhere",
			Difficulty: scenario.Easy,
			Expected:   scenario.Expectation{Plain: true},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				return l.RunBlackholeSquat()
			}),
		},
		{
			Name:       "selective-prepend",
			Title:      "Traffic Steering (selective prepend)",
			Section:    "§7.4",
			Summary:    "move only the flows crossing the target AS, leaving bystander paths and reachability intact",
			Difficulty: scenario.Hard,
			Expected:   scenario.Expectation{Plain: true},
			Params: []scenario.Param{{
				Name: "min-prepend", Kind: scenario.KindInt, Default: "2",
				Help: "minimum prepend count the target's community service must offer",
			}},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				return l.RunSelectivePrepend(ctx.Int("min-prepend"))
			}),
		},
		{
			Name:       "dictionary-poisoning",
			Title:      "Dictionary Poisoning",
			Section:    "§7.6/Krenc",
			Summary:    "inflate a victim AS's inferred community dictionary to mask a later squat from dict-aware detection",
			Difficulty: scenario.Medium,
			Expected:   scenario.Expectation{Plain: true},
			Params: []scenario.Param{{
				Name: "values", Kind: scenario.KindInt, Default: "24",
				Help: "fabricated victim-ASN community values to inject",
			}},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				return l.RunDictionaryPoisoning(ctx.Int("values"))
			}),
		},
		{
			Name:       "hygiene-filtering",
			Title:      "Hygiene Filtering Sweep",
			Section:    "§6.2",
			Summary:    "sweep strip-foreign boundary scrubbing over filtering rates; propagation shrinks, remote RTBH dies",
			Difficulty: scenario.Easy,
			Expected:   scenario.Expectation{Plain: true},
			Params: []scenario.Param{{
				Name: "rates", Kind: scenario.KindString, Default: "0,25,50,75,100",
				Help: "comma-separated strip-foreign adoption percentages to sweep",
			}},
			// Builds one world per rate, so it manages labs itself; warm
			// harnesses must not provision a snapshot it would never fork.
			Run:           RunHygieneFiltering,
			ManagesWorlds: true,
		},
		{
			Name:       "route-leak-amplification",
			Title:      "Route Leak Amplification",
			Section:    "§5.2/§7.3",
			Summary:    "turn a low-impact route leak into a traffic sink with a provider's local-pref-raise community",
			Difficulty: scenario.Medium,
			// A leak is inherently a hijack-class announcement; there is
			// no plain variant.
			Expected: scenario.Expectation{Hijack: true},
			Run: withLab(func(l *Lab, ctx *scenario.Context) (*scenario.Result, error) {
				return l.RunRouteLeakAmplification()
			}),
		},
	}
}
