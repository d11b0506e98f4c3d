package watch_test

// Registry-wide invariants: every registered attack scenario must be
// self-describing (a paper §-citation, a title, a declared Table-3
// expectation), must run to completion on the tiny preset, and must be
// accepted by the evaluation harness — EvalScenario scoring both the
// detectors and, with Config.Semantics, dictionary inference (which
// additionally requires the scenario to expose its built world for
// ground truth). New scenarios cannot land half-wired to the evaluation
// layers.

import (
	"strings"
	"testing"

	_ "bgpworms/internal/attack" // registers the builtin scenarios
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

func TestRegistryScenarioMetadata(t *testing.T) {
	all := scenario.All()
	if len(all) == 0 {
		t.Fatal("no scenarios registered")
	}
	for _, s := range all {
		if s.Title == "" {
			t.Errorf("scenario %s: empty title", s.Name)
		}
		if s.Summary == "" {
			t.Errorf("scenario %s: empty summary", s.Name)
		}
		if !strings.Contains(s.Section, "§") {
			t.Errorf("scenario %s: section %q does not cite a paper section", s.Name, s.Section)
		}
		if !s.Expected.Plain && !s.Expected.Hijack {
			t.Errorf("scenario %s: declares no expected outcome for either variant", s.Name)
		}
		for _, p := range s.Params {
			if p.Name == "" || p.Help == "" {
				t.Errorf("scenario %s: parameter %+v lacks a name or help text", s.Name, p)
			}
		}
	}
}

func TestRegistryScenariosRunOnTiny(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			res, err := scenario.Run(name, nil) // nil context = tiny preset defaults
			if err != nil {
				t.Fatalf("scenario %s does not run on tiny: %v", name, err)
			}
			if res == nil || res.Scenario == "" {
				t.Fatalf("scenario %s returned an empty result", name)
			}
			s, _ := scenario.Get(name)
			exp := s.Expected.Plain
			if res.Hijack {
				exp = s.Expected.Hijack
			}
			if res.Success != exp {
				// The Table-3 expectation is declared for the default
				// lab scale; some outcomes (steering's customer-chain
				// targets) need bigger worlds than tiny. Sweeps grade
				// this per cell as AsExpected — here it is informational.
				t.Logf("scenario %s on tiny: success=%v, declared expectation %v (scale-dependent)", name, res.Success, exp)
			}
		})
	}
}

func TestRegistryScenariosAcceptedByEvalHarnesses(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			sem := semantics.NewEngine(semantics.Config{})
			defer sem.Close()
			rep, err := watch.EvalScenario(name, nil, watch.Config{Semantics: sem})
			if err != nil {
				t.Fatalf("EvalScenario rejects %s: %v", name, err)
			}
			if rep.Stats.Ingested == 0 {
				t.Fatalf("EvalScenario saw no update stream for %s (tap unwired?)", name)
			}
			if rep.Dict.Snapshot.Len() == 0 {
				t.Fatalf("EvalScenario inferred an empty dictionary for %s", name)
			}
			if rep.Dict.Score.TruthTotal == 0 {
				t.Fatalf("EvalScenario found no dictionary ground truth for %s", name)
			}
		})
	}
}
