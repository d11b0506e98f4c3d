package attack

// Scenario-level warm-world equivalence: running any registered
// scenario on a fork of a frozen snapshot must be indistinguishable —
// bit for bit — from running it on a world built from scratch. The
// observables compared are everything a harness can see: the scenario
// Result (JSON), the full update tap stream (world construction
// included, since the warm path replays it), the collector MRT
// archives, every router's final RIB, and the watch/semantics
// evaluation reports built on top.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"bgpworms/internal/gen"
	"bgpworms/internal/scenario"
	"bgpworms/internal/semantics"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
	"bgpworms/internal/watch"
)

// warmCombos is the engine × worker matrix the equivalence claim
// covers: the delta engine and its rounds reference under 1/4/16 engine
// workers.
var warmCombos = []struct {
	engine  string
	workers int
}{
	{"rounds", 1}, {"rounds", 4}, {"rounds", 16},
	{"delta", 1}, {"delta", 4}, {"delta", 16},
}

// scenarioObservable collapses everything one scenario run exposes.
type scenarioObservable struct {
	result   []byte
	taps     string
	archives []byte
	ribs     string
}

func warmContext(t *testing.T, name, scale, engine string, workers int) *scenario.Context {
	t.Helper()
	ctx, err := scenario.ContextFor(scenario.Cell{
		Scenario: name, Scale: scale, Seed: 1,
		EngineWorkers: workers,
	})
	if err != nil {
		t.Fatalf("%s: context: %v", name, err)
	}
	ctx.Gen.Engine = engine
	return ctx
}

// runObservable executes the scenario (warm when snap is non-nil,
// scratch otherwise) and collapses its observables, the update stream
// only when tapped. Tap events are formatted as they arrive.
func runObservable(t *testing.T, name string, ctx *scenario.Context, snap *gen.Snapshot, tapped bool) *scenarioObservable {
	t.Helper()
	var taps strings.Builder
	if tapped {
		ctx.Tap = func(from, to topo.ASN, prefix netip.Prefix, ref simnet.RouteRef) {
			if !ref.Valid() {
				fmt.Fprintf(&taps, "%d>%d %s withdraw\n", from, to, prefix)
				return
			}
			rt := ref.Route()
			fmt.Fprintf(&taps, "%d>%d %s %s\n", from, to, prefix, &rt)
		}
	}
	var worlds []*gen.Internet
	ctx.World = func(w *gen.Internet) { worlds = append(worlds, w) }
	ctx.Warm = snap
	res, err := scenario.Run(name, ctx)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	out := &scenarioObservable{taps: taps.String()}
	if out.result, err = json.Marshal(res); err != nil {
		t.Fatalf("%s: marshal result: %v", name, err)
	}
	var arch bytes.Buffer
	var ribs strings.Builder
	for _, w := range worlds {
		for _, c := range w.Collectors {
			if _, err := c.WriteUpdatesMRT(&arch); err != nil {
				t.Fatalf("%s: updates MRT: %v", name, err)
			}
			if _, err := c.WriteRIBSnapshotMRT(&arch, w.Net, gen.BaseTime.AddDate(0, 1, 0)); err != nil {
				t.Fatalf("%s: RIB MRT: %v", name, err)
			}
		}
		for _, asn := range w.Net.ASes() {
			r := w.Net.Router(asn)
			for _, rt := range r.RIB() {
				fmt.Fprintf(&ribs, "AS%d %s\n", asn, rt)
			}
		}
	}
	out.archives = arch.Bytes()
	out.ribs = ribs.String()
	return out
}

// diffObservable names the first observable where warm and cold
// diverge; empty means bit-identical.
func diffObservable(cold, warm *scenarioObservable) string {
	if !bytes.Equal(warm.result, cold.result) {
		return fmt.Sprintf("Result JSON diverges:\nwarm: %s\ncold: %s", warm.result, cold.result)
	}
	if warm.taps != cold.taps {
		return "tap streams diverge"
	}
	if !bytes.Equal(warm.archives, cold.archives) {
		return "collector MRT archives diverge"
	}
	if warm.ribs != cold.ribs {
		return "final RIBs diverge"
	}
	return ""
}

// forkableScenarios lists every registered scenario that runs on a
// harness-provided world (scenarios managing their own worlds never
// fork a snapshot, so the warm path does not exist for them).
func forkableScenarios(t *testing.T) []string {
	t.Helper()
	var out []string
	managed := 0
	for _, name := range scenario.Names() {
		s, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("registry lists unknown scenario %q", name)
		}
		if s.ManagesWorlds {
			managed++
			continue
		}
		out = append(out, name)
	}
	if managed == 0 {
		t.Fatal("expected at least one ManagesWorlds scenario (hygiene-filtering) to exercise the skip path")
	}
	return out
}

// checkScenarioMatrix runs every forkable scenario cold and warm over
// the given combos on one scale, sharing one frozen snapshot per combo
// across scenarios — exactly the reuse pattern the sweep and suite
// harnesses rely on. Each combo freezes twice: a recording snapshot
// whose tapped forks must match the cold run stream included (the
// suite's path), and a stream-free one whose untapped forks must match
// it on everything else (the sweep's path). The combos run as parallel
// subtests: each builds its own snapshots and its own cold worlds and
// shares nothing.
func checkScenarioMatrix(t *testing.T, scale string, combos []struct {
	engine  string
	workers int
}) {
	t.Helper()
	names := forkableScenarios(t)
	for _, v := range combos {
		v := v
		t.Run(fmt.Sprintf("%s/%s/w%d", scale, v.engine, v.workers), func(t *testing.T) {
			t.Parallel()
			base := warmContext(t, names[0], scale, v.engine, v.workers)
			snap, err := gen.BuildSnapshotForReplay(base.Gen)
			if err != nil {
				t.Fatalf("freeze %s/%s/%d: %v", scale, v.engine, v.workers, err)
			}
			bare, err := gen.BuildSnapshot(base.Gen)
			if err != nil {
				t.Fatalf("freeze %s/%s/%d stream-free: %v", scale, v.engine, v.workers, err)
			}
			for _, name := range names {
				cold := runObservable(t, name, warmContext(t, name, scale, v.engine, v.workers), nil, true)
				warm := runObservable(t, name, warmContext(t, name, scale, v.engine, v.workers), snap, true)
				if msg := diffObservable(cold, warm); msg != "" {
					t.Errorf("%s on %s/%s/%d: %s", name, scale, v.engine, v.workers, msg)
				}
				untapped := runObservable(t, name, warmContext(t, name, scale, v.engine, v.workers), bare, false)
				cold.taps = ""
				if msg := diffObservable(cold, untapped); msg != "" {
					t.Errorf("%s untapped on %s/%s/%d: %s", name, scale, v.engine, v.workers, msg)
				}
			}
		})
	}
}

// TestWarmScenarioEquivalence is the tiny-scale matrix: both engines,
// all worker counts (a reduced diagonal in -short mode).
func TestWarmScenarioEquivalence(t *testing.T) {
	combos := warmCombos
	if testing.Short() {
		combos = combos[:0:0]
		combos = append(combos, warmCombos[1], warmCombos[3]) // rounds/4, delta/1
	}
	checkScenarioMatrix(t, "tiny", combos)
}

// TestWarmScenarioEquivalenceSmall covers the small preset on the
// delta engine across worker counts (the full matrix runs on tiny;
// small guards against tiny-only coincidences).
func TestWarmScenarioEquivalenceSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale warm equivalence skipped in -short mode")
	}
	checkScenarioMatrix(t, "small", []struct {
		engine  string
		workers int
	}{
		{"delta", 1}, {"delta", 4}, {"delta", 16},
	})
}

// TestWarmEvalScenarioEquivalence runs the watch evaluation loop —
// the engine tap, detector replay, and scoring — warm and cold per
// scenario and requires byte-identical reports. This is the suite
// harness's exact code path.
func TestWarmEvalScenarioEquivalence(t *testing.T) {
	base := warmContext(t, "rtbh", "tiny", "delta", 1)
	snap, err := gen.BuildSnapshotForReplay(base.Gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range forkableScenarios(t) {
		cold, err := watch.EvalScenario(name, warmContext(t, name, "tiny", "delta", 1), watch.Config{Shards: 2})
		if err != nil {
			t.Fatalf("%s: cold eval: %v", name, err)
		}
		wctx := warmContext(t, name, "tiny", "delta", 1)
		wctx.Warm = snap
		warm, err := watch.EvalScenario(name, wctx, watch.Config{Shards: 2})
		if err != nil {
			t.Fatalf("%s: warm eval: %v", name, err)
		}
		cj, _ := json.Marshal(cold)
		wj, _ := json.Marshal(warm)
		if !bytes.Equal(cj, wj) {
			t.Errorf("%s: warm EvalScenario report diverges from cold:\nwarm: %s\ncold: %s", name, wj, cj)
		}
	}
}

// TestWarmDictEvalEquivalence runs the evaluation with dictionary
// inference folded on the replay, warm and cold, for the scenario that
// attacks the dictionary itself: the reports (score included) and the
// inferred dictionaries must be identical.
func TestWarmDictEvalEquivalence(t *testing.T) {
	const name = "dictionary-poisoning"
	base := warmContext(t, name, "tiny", "delta", 1)
	snap, err := gen.BuildSnapshotForReplay(base.Gen)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(ctx *scenario.Context) ([]byte, []byte) {
		sem := semantics.NewEngine(semantics.Config{})
		defer sem.Close()
		rep, err := watch.EvalScenario(name, ctx, watch.Config{Shards: 2, Semantics: sem})
		if err != nil {
			t.Fatalf("dict eval: %v", err)
		}
		rj, _ := json.Marshal(rep)
		ej, _ := json.Marshal(rep.Dict.Snapshot.Entries())
		return rj, ej
	}
	cold, coldDict := eval(warmContext(t, name, "tiny", "delta", 1))
	wctx := warmContext(t, name, "tiny", "delta", 1)
	wctx.Warm = snap
	warm, warmDict := eval(wctx)
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm dictionary eval report diverges from cold:\nwarm: %s\ncold: %s", warm, cold)
	}
	if !bytes.Equal(coldDict, warmDict) {
		t.Error("warm replay inferred a different dictionary than cold")
	}
}

// TestWarmIncompatibleSnapshotIsLoud pins the failure mode: a warm
// snapshot built for different generator parameters must error, never
// silently rebuild.
func TestWarmIncompatibleSnapshotIsLoud(t *testing.T) {
	base := warmContext(t, "rtbh", "tiny", "delta", 1)
	snap, err := gen.BuildSnapshot(base.Gen)
	if err != nil {
		t.Fatal(err)
	}
	ctx := warmContext(t, "rtbh", "tiny", "rounds", 1)
	ctx.Warm = snap
	if _, err := scenario.Run("rtbh", ctx); err == nil {
		t.Fatal("mismatched warm snapshot accepted silently")
	}
}
