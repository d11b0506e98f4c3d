package watch_test

import (
	"testing"

	_ "bgpworms/internal/attack" // registers the builtin scenarios
	"bgpworms/internal/watch"
)

// TestEvalPerfectRecall is the acceptance gate: replaying the paper's
// blackholing attack and the route-leak amplification through the watch
// engine must trigger every detector their ground truth requires.
func TestEvalPerfectRecall(t *testing.T) {
	for _, name := range []string{"rtbh", "route-leak-amplification"} {
		t.Run(name, func(t *testing.T) {
			rep, err := watch.EvalScenario(name, nil, watch.Config{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Known {
				t.Fatalf("scenario %s declares no detection ground truth", name)
			}
			if rep.Stats.Processed != rep.Stats.Ingested {
				t.Fatalf("replay applied %d of %d events", rep.Stats.Processed, rep.Stats.Ingested)
			}
			if rep.Recall != 1 {
				t.Fatalf("recall = %.2f, want 1\n%+v", rep.Recall, rep.Scores)
			}
			truth, _ := watch.ScenarioTruth(name)
			fired := map[string]int{}
			for _, s := range rep.Scores {
				fired[s.Detector] = s.Fired
			}
			for _, must := range truth.Must {
				if fired[must] == 0 {
					t.Fatalf("detector %s never fired\n%+v", must, rep.Scores)
				}
			}
			if rep.Result == nil || !rep.Result.Success {
				t.Fatalf("scenario itself failed: %+v", rep.Result)
			}
		})
	}
}

// TestEvalSquatOvercount reproduces §7.6's inference lesson live: the
// value-pattern blackhole detector fires on a squatted decoy community
// too, and the ground truth expects exactly that.
func TestEvalSquatOvercount(t *testing.T) {
	rep, err := watch.EvalScenario("blackhole-squatting", nil, watch.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recall != 1 {
		t.Fatalf("recall = %.2f, want 1\n%+v", rep.Recall, rep.Scores)
	}
	for _, s := range rep.Scores {
		if s.Detector == "blackhole-onset" && s.Fired == 0 {
			t.Fatalf("decoy :666 did not trip the value-pattern detector\n%+v", rep.Scores)
		}
	}
}

// TestEvalUnknownScenarioTolerant pins that scenarios without declared
// truth still replay and report descriptive scores.
func TestEvalUnknownScenarioTolerant(t *testing.T) {
	rep, err := watch.EvalScenario("propagation-distance", nil, watch.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Known {
		t.Fatal("propagation-distance should declare no truth")
	}
	if rep.Precision != 1 || rep.Recall != 1 {
		t.Fatalf("unknown truth must not charge precision/recall: %+v", rep)
	}
	if len(rep.Scores) == 0 {
		t.Fatal("descriptive scores missing")
	}
}
