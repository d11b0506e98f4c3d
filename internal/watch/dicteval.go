package watch

import (
	"fmt"

	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
)

// This file closes the infer-what-you-generate loop, the dictionary
// analogue of eval.go: a registered scenario replays with a semantics
// tap observing the full simulated update stream, and the inferred
// dictionaries are scored against the world's exported ground truth
// (gen.Registry.Dict / Internet.TruthDict).

// DictEvalReport is the outcome of scoring dictionary inference over
// one scenario replay.
type DictEvalReport struct {
	Scenario string `json:"scenario"`
	// Result is the scenario's own Table-3 outcome.
	Result *scenario.Result `json:"result"`
	// Stats is the semantics engine's operational snapshot.
	Stats semantics.Stats `json:"stats"`
	// Score grades the inferred dictionary against the world ground
	// truth captured after the run (lab-added services included).
	Score semantics.Score `json:"score"`
}

// EvalDictionaryScenario replays the named registered scenario with a
// semantics tap observing every update delivery — world construction,
// probes, and the attack itself — then scores the inferred dictionary
// against the world's ground truth. The returned snapshot is the
// frozen dictionary the run produced (feed it to Config.Dict for
// detection on a second pass). A nil ctx replays with scenario
// defaults; any caller Tap/World hooks on ctx are replaced.
func EvalDictionaryScenario(name string, ctx *scenario.Context) (*DictEvalReport, *semantics.Snapshot, error) {
	if ctx == nil {
		ctx = &scenario.Context{}
	}
	eng := semantics.NewEngine(semantics.Config{})
	defer eng.Close()
	var world *gen.Internet
	ctx.World = func(w *gen.Internet) { world = w }
	ctx.Tap = feed.Tap("", eng.Ingest)
	res, err := scenario.Run(name, ctx)
	if err != nil {
		return nil, nil, err
	}
	if world == nil {
		return nil, nil, fmt.Errorf("watch: scenario %q never exposed its world (no ground truth)", name)
	}
	snap := eng.Snapshot()
	rep := &DictEvalReport{
		Scenario: name,
		Result:   res,
		Stats:    eng.Stats(),
		// TruthDict reads the world after the run, so services the lab
		// provisioned mid-scenario count as ground truth too.
		Score: semantics.ScoreAgainst(snap, world.TruthDict()),
	}
	return rep, snap, nil
}

// RenderDictEval renders the report as the per-class table plus a
// summary line.
func RenderDictEval(r *DictEvalReport) string {
	out := semantics.RenderScore(r.Score)
	out += fmt.Sprintf("scenario=%s success=%v observations=%d communities=%d ases=%d\n",
		r.Scenario, r.Result != nil && r.Result.Success, r.Stats.Processed, r.Stats.Communities, r.Stats.ASes)
	return out
}
