package watch_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"bgpworms/internal/attack"
	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
	"bgpworms/internal/gen"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// trainDictionary builds the same world the default-scale scenarios
// build (tiny preset, default seed, lab attached) with a semantics tap
// observing construction, then runs a month of churn over it — the
// clean-baseline training pass CommunityWatch-style detection needs.
// It returns the frozen dictionary and the training world.
func trainDictionary(t *testing.T) (*semantics.Snapshot, *gen.Internet) {
	t.Helper()
	eng := semantics.NewEngine(semantics.Config{})
	defer eng.Close()
	p, err := gen.Preset(scenario.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	p.Tap = feed.Tap("", eng.Ingest)
	l, err := attack.NewLab(p, scenario.DefaultVPs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.W.RunChurn(); err != nil {
		t.Fatal(err)
	}
	return eng.Snapshot(), l.W
}

// TestDictSquatReducesFalsePositives is the PR-4 acceptance gate: on
// the squatted-decoy scenario, the dictionary-aware squat detector must
// fire strictly less than the PR-3 value-pattern squat detector while
// still catching the actual squat.
func TestDictSquatReducesFalsePositives(t *testing.T) {
	snap, world := trainDictionary(t)
	if len(world.Registry.Likely) == 0 {
		t.Skip("no decoy blackhole community in this topology")
	}
	decoy := world.Registry.Likely[0]

	rep, err := watch.EvalScenario("blackhole-squatting", nil, watch.Config{Shards: 4, Dict: snap})
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]int{}
	decoyAlerts := map[string]int{}
	for _, a := range rep.Alerts {
		fired[a.Detector]++
		if a.Community == decoy.String() {
			decoyAlerts[a.Detector]++
		}
	}
	if fired[watch.DictSquatName] == 0 {
		t.Fatalf("dict-squat never fired\n%+v", rep.Scores)
	}
	if fired[watch.DictSquatName] >= fired["community-squat"] {
		t.Fatalf("dict-squat fired %d times, PR-3 community-squat %d — no strict reduction\n%+v",
			fired[watch.DictSquatName], fired["community-squat"], rep.Scores)
	}
	if decoyAlerts[watch.DictSquatName] == 0 {
		t.Fatalf("dict-squat missed the decoy squat %s (alerts by detector: %v)", decoy, fired)
	}
	if decoyAlerts[watch.UnknownActionName] == 0 {
		t.Fatalf("unknown-action-community missed the decoy %s (alerts: %v)", decoy, fired)
	}
	if rep.Recall != 1 {
		t.Fatalf("recall=%.2f with dict detectors active\n%+v", rep.Recall, rep.Scores)
	}
	t.Logf("community-squat=%d dict-squat=%d (%.0f%% fewer), decoy caught by both dict detectors",
		fired["community-squat"], fired[watch.DictSquatName],
		100*(1-float64(fired[watch.DictSquatName])/float64(fired["community-squat"])))
}

// TestDictDetectorDeterminismAcrossShards extends the engine's
// shard-count invariance to the dictionary-aware detectors: with a
// frozen snapshot the full alert set is bit-identical at 1 and 8
// shards.
func TestDictDetectorDeterminismAcrossShards(t *testing.T) {
	snap, _ := trainDictionary(t)
	var want []byte
	for _, shards := range []int{1, 8} {
		rep, err := watch.EvalScenario("blackhole-squatting", nil, watch.Config{Shards: shards, Dict: snap})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep.Alerts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("alert set differs between shard counts")
		}
	}
}

// TestSemanticsMirroring checks Config.Semantics: at 1, 4 and 16 shards
// the dictionary the shard workers fold — evidence, bounds, fold count —
// is the one a standalone engine builds from the same events under the
// sequence numbers and timestamps the watch engine assigns, and it is
// complete once Flush returns. Then the engines close in the order
// wormwatchd's defers produce, dictionary first: what the watch engine
// still drains is dropped, and the dictionary stays as it was.
func TestSemanticsMirroring(t *testing.T) {
	events := churnEvents(t)
	state := func(e *semantics.Engine) []byte {
		t.Helper()
		b, err := json.Marshal(e.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	alone := semantics.NewEngine(semantics.Config{})
	defer alone.Close()
	for i, ev := range events {
		alone.Ingest(feed.Event{
			Seq: uint64(i + 1), Time: ev.Time, PeerAS: ev.PeerAS,
			Prefix: ev.Prefix, ASPath: ev.ASPath, Communities: ev.Communities,
		})
	}
	want := state(alone)
	if alone.Stats().Communities == 0 {
		t.Fatal("the feed builds no dictionary; the comparison is vacuous")
	}
	for _, shards := range []int{1, 4, 16} {
		sem := semantics.NewEngine(semantics.Config{})
		eng := watch.NewEngine(watch.Config{Shards: shards, Semantics: sem})
		for _, ev := range events {
			eng.Ingest(ev)
		}
		eng.Flush()
		if got := state(sem); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: dictionary differs from the standalone engine's (%d vs %d bytes)", shards, len(got), len(want))
		}
		sem.Close()
		for _, ev := range events[:200] {
			eng.Ingest(ev) // left pending: Close drains it into the closed dictionary
		}
		eng.Close()
		if got := state(sem); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: a closed dictionary engine kept folding", shards)
		}
	}
}

// evalDict runs EvalScenario with dictionary inference folded on the
// replay, as the suite's dictionary-gated cells do.
func evalDict(t *testing.T, name string, ctx *scenario.Context) *watch.EvalReport {
	t.Helper()
	sem := semantics.NewEngine(semantics.Config{})
	defer sem.Close()
	rep, err := watch.EvalScenario(name, ctx, watch.Config{Shards: 2, Semantics: sem})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dict == nil {
		t.Fatalf("%s: EvalScenario with Semantics reported no dictionary score", name)
	}
	return rep
}

// TestEvalDictionaryScenario scores dictionary inference against the
// generator's exported ground truth over two scenarios — the
// infer-what-you-generate acceptance gate.
func TestEvalDictionaryScenario(t *testing.T) {
	for _, name := range []string{"rtbh", "blackhole-squatting"} {
		t.Run(name, func(t *testing.T) {
			d := evalDict(t, name, nil).Dict
			if d.Snapshot.Len() == 0 {
				t.Fatal("empty inferred dictionary")
			}
			if p := d.Score.Precision(); p < 0.9 {
				t.Fatalf("precision=%.2f, want >= 0.9\n%s", p, semantics.RenderScore(d.Score))
			}
			if r := d.Score.Recall(); r < 0.5 {
				t.Fatalf("recall=%.2f, want >= 0.5\n%s", r, semantics.RenderScore(d.Score))
			}
			t.Logf("\n%s", semantics.RenderScore(d.Score))
		})
	}
}

// TestEvalDictionaryDeterminism pins the score across replays: the same
// scenario must grade identically every time it runs.
func TestEvalDictionaryDeterminism(t *testing.T) {
	a, _ := json.Marshal(evalDict(t, "rtbh", nil).Dict.Score)
	b, _ := json.Marshal(evalDict(t, "rtbh", nil).Dict.Score)
	if string(a) != string(b) {
		t.Fatalf("score differs across replays:\n%s\nvs\n%s", a, b)
	}
}

// TestEvalDictionaryFromOneReplay holds the single evaluated replay to
// what a second, dedicated replay infers: for every registered scenario
// the dictionary the watch shards folded — every entry's class and
// counters — and its score equal those of a semantics engine tapped on
// its own replay of the same world. Only the sighting bounds differ by
// construction (the watch engine numbers every event, the standalone
// engine only community-bearing ones), so they are left out. Two seeds
// of the default scale keep it cheap.
func TestEvalDictionaryFromOneReplay(t *testing.T) {
	entries := func(snap *semantics.Snapshot) []byte {
		var out []semantics.Entry
		for _, e := range snap.Entries() {
			c := *e
			c.FirstSeq, c.LastSeq, c.FirstSeen, c.LastSeen = 0, 0, time.Time{}, time.Time{}
			out = append(out, c)
		}
		b, _ := json.Marshal(out)
		return b
	}
	for _, name := range scenario.Names() {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				params, err := gen.Preset(scenario.DefaultScale)
				if err != nil {
					t.Fatal(err)
				}
				params.Seed = seed
				one := evalDict(t, name, &scenario.Context{Gen: params}).Dict

				sem := semantics.NewEngine(semantics.Config{})
				defer sem.Close()
				var world *gen.Internet
				if _, err := scenario.Run(name, &scenario.Context{
					Gen:   params,
					Tap:   feed.Tap("", sem.Ingest),
					World: func(w *gen.Internet) { world = w },
				}); err != nil {
					t.Fatal(err)
				}
				second := sem.Snapshot()
				if got, want := entries(one.Snapshot), entries(second); !bytes.Equal(got, want) {
					t.Fatalf("the evaluated replay inferred %d entries, a second replay %d, and they differ",
						one.Snapshot.Len(), second.Len())
				}
				got, _ := json.Marshal(one.Score)
				want, _ := json.Marshal(semantics.ScoreAgainst(second, world.TruthDict()))
				if !bytes.Equal(got, want) {
					t.Fatalf("score from the evaluated replay:\n%s\nfrom a second replay:\n%s", got, want)
				}
			})
		}
	}
}

// TestDictProviderNilSafety: a semantics engine that has published no
// snapshot yet behaves like an empty dictionary — every off-path
// community is outside it.
func TestDictProviderNilSafety(t *testing.T) {
	sem := semantics.NewEngine(semantics.Config{})
	defer sem.Close()
	eng := watch.NewEngine(watch.Config{Shards: 1, Dict: sem})
	defer eng.Close()
	eng.Ingest(feed.Event{
		PeerAS: 1,
		Prefix: netip.MustParsePrefix("10.1.0.0/24"),
		ASPath: []uint32{1, 2},
		Communities: bgp.NewCommunitySet(
			bgp.C(9, 40001),
		),
	})
	eng.Flush()
	found := false
	for _, a := range eng.Alerts() {
		if a.Detector == watch.DictSquatName {
			found = true
		}
	}
	if !found {
		t.Fatal("dict-squat silent with an empty dictionary")
	}
}
