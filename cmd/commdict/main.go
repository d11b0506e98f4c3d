// Command commdict infers per-AS community dictionaries from an update
// source and prints them with usage classes — the CLI face of
// internal/semantics.
//
// Two feed modes:
//
//	commdict -mrt dir|file.mrt          infer from MRT update archives
//	commdict -scenario rtbh             replay a registered attack
//	                                    scenario and score the inferred
//	                                    dictionary against the world's
//	                                    ground truth
//
// Examples:
//
//	genesis -scale tiny -out /tmp/gdata
//	commdict -mrt /tmp/gdata                  # whole dictionary
//	commdict -mrt /tmp/gdata -asn 1003        # one AS's vocabulary
//	commdict -scenario blackhole-squatting    # inference vs ground truth
//	commdict -mrt /tmp/gdata -json | jq .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	_ "bgpworms/internal/attack" // registers the builtin scenarios
	"bgpworms/internal/core"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
)

func main() {
	var (
		mrtPath = flag.String("mrt", "", "MRT update archive to infer from (file, or dir of updates.*.mrt)")
		scen    = flag.String("scenario", "", "replay a registered attack scenario and score inference against ground truth")
		world   = gen.NewFlags(flag.CommandLine, scenario.DefaultScale)
		asn     = flag.Int("asn", -1, "print only this AS's dictionary (0..65535: communities name 16-bit ASNs)")
		asJSON  = flag.Bool("json", false, "emit JSON instead of tables")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every input is a flag, and flags after it were not read (see -h)", flag.Arg(0)))
	}

	switch {
	case *asn < -1 || *asn > 0xFFFF:
		fail(fmt.Errorf("-asn %d: a community names a 16-bit AS, 0..65535", *asn))
	case *scen != "" && *mrtPath != "":
		fail(fmt.Errorf("-mrt and -scenario are exclusive"))
	case *scen != "":
		params, err := world.Params()
		if err != nil {
			fail(err)
		}
		runScenario(*scen, params, *asn, *asJSON)
	case *mrtPath != "":
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" || f.Name == "seed" {
				fail(fmt.Errorf("-mrt infers from the archives' world and reads no -%s", f.Name))
			}
		})
		runMRT(*mrtPath, *asn, *asJSON)
	default:
		fail(fmt.Errorf("need -mrt or -scenario (see -h)"))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "commdict:", err)
	os.Exit(1)
}

// jsonPayload is the -json output shape.
type jsonPayload struct {
	Stats   semantics.Stats    `json:"stats"`
	Score   *semantics.Score   `json:"score,omitempty"`
	Entries []*semantics.Entry `json:"entries"`
	Eval    *scenarioEval      `json:"eval,omitempty"`
}

// scenarioEval is what -scenario adds to the dictionary: the replay's
// own outcome and the inference score against the world's ground truth.
type scenarioEval struct {
	Scenario string           `json:"scenario"`
	Result   *scenario.Result `json:"result"`
	Stats    semantics.Stats  `json:"stats"`
	Score    semantics.Score  `json:"score"`
}

func emit(snap *semantics.Snapshot, stats semantics.Stats, ev *scenarioEval, asn int, asJSON bool) {
	if asJSON {
		payload := jsonPayload{Stats: stats, Eval: ev}
		if ev != nil {
			payload.Score = &ev.Score
		}
		if asn >= 0 {
			payload.Entries = snap.AS(uint16(asn))
		} else {
			payload.Entries = snap.Entries()
		}
		b, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Print(semantics.RenderDictionary(snap, asn))
	if ev != nil {
		fmt.Println()
		fmt.Print(semantics.RenderScore(ev.Score))
		fmt.Printf("scenario=%s success=%v observations=%d communities=%d ases=%d\n",
			ev.Scenario, ev.Result != nil && ev.Result.Success, ev.Stats.Processed, ev.Stats.Communities, ev.Stats.ASes)
	}
}

// runScenario replays a registered scenario with a semantics tap
// observing every update delivery — world construction, probes, and the
// attack itself — then scores the inferred dictionary against the
// world's ground truth, read after the run so services the lab
// provisioned mid-scenario count too.
func runScenario(name string, params gen.Params, asn int, asJSON bool) {
	eng := semantics.NewEngine(semantics.Config{})
	defer eng.Close()
	var world *gen.Internet
	res, err := scenario.Run(name, &scenario.Context{
		Gen:   params,
		Tap:   feed.Tap("", eng.Ingest),
		World: func(w *gen.Internet) { world = w },
	})
	if err != nil {
		fail(err)
	}
	if world == nil {
		fail(fmt.Errorf("scenario %q never exposed its world (no ground truth)", name))
	}
	snap := eng.Snapshot()
	ev := &scenarioEval{Scenario: name, Result: res, Stats: eng.Stats(),
		Score: semantics.ScoreAgainst(snap, world.TruthDict())}
	emit(snap, ev.Stats, ev, asn, asJSON)
}

func runMRT(path string, asn int, asJSON bool) {
	paths, _, err := core.UpdateArchives(path)
	if err != nil {
		fail(err)
	}
	eng := semantics.NewEngine(semantics.Config{})
	defer eng.Close()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fail(err)
		}
		_, err = feed.StreamMRT(f, filepath.Base(p), eng.Ingest)
		f.Close()
		if err != nil {
			fail(fmt.Errorf("%s: %w", p, err))
		}
	}
	emit(eng.Snapshot(), eng.Stats(), nil, asn, asJSON)
}
