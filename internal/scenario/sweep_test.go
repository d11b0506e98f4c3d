package scenario_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	_ "bgpworms/internal/attack" // registers the builtin scenarios
	"bgpworms/internal/obs"
	"bgpworms/internal/scenario"
	"bgpworms/internal/suite"
)

func TestGridCellEnumeration(t *testing.T) {
	g := scenario.Grid{
		Scenarios:     []string{"rtbh", "propagation-distance"},
		Scales:        []string{"tiny"},
		Seeds:         []int64{1, 2},
		EngineWorkers: []int{1, 4},
		CommunitySets: []string{"verified"},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*1*2*2*1 {
		t.Fatalf("cells=%d", len(cells))
	}
	// Canonical order: scenario outermost, then scale, seed, workers, set.
	if cells[0].Scenario != "rtbh" || cells[0].Seed != 1 || cells[0].EngineWorkers != 1 {
		t.Fatalf("cell 0 = %+v", cells[0])
	}
	if cells[3].Scenario != "rtbh" || cells[3].Seed != 2 || cells[3].EngineWorkers != 4 {
		t.Fatalf("cell 3 = %+v", cells[3])
	}
	if cells[4].Scenario != "propagation-distance" {
		t.Fatalf("cell 4 = %+v", cells[4])
	}
}

func TestGridRejectsUnknownDimensions(t *testing.T) {
	if _, err := (scenario.Grid{Scenarios: []string{"nope"}}).Cells(); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := (scenario.Grid{Scales: []string{"galactic"}}).Cells(); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if _, err := (scenario.Grid{Engines: []string{"rounds"}}).Cells(); err == nil {
		t.Fatal("engine other than delta accepted")
	}
	if _, err := (scenario.Grid{
		Scenarios: []string{"rtbh"},
		Values:    scenario.Values{"bogus": "1"},
	}).Cells(); err == nil {
		t.Fatal("unknown fixed value accepted")
	}
}

// TestSweepDeterminismAcrossWorkers is the acceptance gate: the rendered
// sweep report must be bit-identical whether one harness worker or eight
// execute the grid.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	g := scenario.Grid{
		Scenarios: []string{
			"rtbh", "route-manipulation", "propagation-distance", "blackhole-squatting",
		},
		Scales: []string{"tiny"},
		Seeds:  []int64{1, 2},
	}
	one, err := scenario.SweepOpts(g, 1, scenario.SweepOpt{})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := scenario.SweepOpts(g, 8, scenario.SweepOpt{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := json.Marshal(eight)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatalf("sweep output differs across harness workers:\nworkers=1: %s\nworkers=8: %s", b1, b8)
	}
	if one.Ran != 8 || one.Ran != one.Succeeded+one.Failed+one.Errored {
		t.Fatalf("report counts inconsistent: %+v", one)
	}
	if one.Errored != 0 {
		t.Fatalf("cells errored: %s", b1)
	}
	// Warm reuse: one world built per seed, every cell run on a fork.
	if one.SnapshotBuilds != 2 || one.SnapshotForks < one.Ran {
		t.Fatalf("sweep built %d worlds and forked %d times for %d cells over 2 seeds",
			one.SnapshotBuilds, one.SnapshotForks, one.Ran)
	}
	if scenario.RenderSweep(one) == "" {
		t.Fatal("render empty")
	}
}

// TestWarmCacheRecordsOnlyForTappedCells pins which harness records a
// snapshot's construction stream. No sweep cell taps its world, so
// SweepOpts' snapshots are stream-free: a one-cell sweep replays to taps
// exactly what the cell replays when NewWarmCache(false) provisions it,
// and less than under NewWarmCache(true), whose build replays every
// delivery into the recorder. Every suite cell replays its world through
// EvalScenario's tap, which a stream-free snapshot refuses, so suite.Run
// records: its warm cells run without error.
func TestWarmCacheRecordsOnlyForTappedCells(t *testing.T) {
	replayed := obs.Default.Counter("simnet_tap_replayed_total", "")
	g := scenario.Grid{Scenarios: []string{"rtbh"}}
	cells, err := g.Cells()
	if err != nil || len(cells) != 1 {
		t.Fatalf("grid: %d cells, %v", len(cells), err)
	}
	provisioned := func(tapped bool) uint64 {
		before := replayed.Value()
		ctx, err := scenario.NewWarmCache(tapped).Context(cells[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scenario.Run(cells[0].Scenario, ctx); err != nil {
			t.Fatal(err)
		}
		return replayed.Value() - before
	}
	bare, recording := provisioned(false), provisioned(true)
	before := replayed.Value()
	rep, err := scenario.SweepOpts(g, 1, scenario.SweepOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errored != 0 || rep.SnapshotBuilds != 1 {
		t.Fatalf("sweep: %d errored, %d snapshots built", rep.Errored, rep.SnapshotBuilds)
	}
	if got := replayed.Value() - before; got != bare || bare >= recording {
		t.Fatalf("sweep replayed %d deliveries to taps; a stream-free snapshot's cell replays %d, a recording one's %d", got, bare, recording)
	}

	s := &suite.Suite{
		Name:     "warm-recording",
		Defaults: suite.Defaults{Scales: []string{"tiny"}, Seeds: []int64{1, 2, 3}},
		Entries:  []suite.Entry{{Scenario: "rtbh"}},
	}
	srep, err := suite.Run(s, suite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if srep.Errored != 0 || srep.SnapshotBuilds != 3 {
		t.Fatalf("suite: %d of %d cells errored on %d snapshots: %v", srep.Errored, srep.Ran, srep.SnapshotBuilds, srep.Failures)
	}
}

// TestSweepCellExpectations pins the self-describing report rows: every
// run cell carries the scenario's declared Table-3 expectation for the
// variant that ran, graded against the actual outcome, and the report
// total agrees with the per-cell grades.
func TestSweepCellExpectations(t *testing.T) {
	g := scenario.Grid{
		Scenarios: []string{"rtbh", "route-leak-amplification"},
		Values:    scenario.Values{"hijack": "true"},
	}
	rep, err := scenario.SweepOpts(g, 2, scenario.SweepOpt{})
	if err != nil {
		t.Fatal(err)
	}
	asExpected := 0
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Err != "" || c.Result == nil {
			t.Fatalf("cell %d errored: %q", i, c.Err)
		}
		s, _ := scenario.Get(c.Scenario)
		want := s.Expected.Plain
		if c.Result.Hijack {
			want = s.Expected.Hijack
		}
		if c.Expected != want {
			t.Fatalf("cell %s: Expected=%v, scenario declares %v (hijack=%v)",
				c.Scenario, c.Expected, want, c.Result.Hijack)
		}
		if c.AsExpected != (c.Result.Success == c.Expected) {
			t.Fatalf("cell %s: AsExpected=%v inconsistent with Success=%v Expected=%v",
				c.Scenario, c.AsExpected, c.Result.Success, c.Expected)
		}
		if c.AsExpected {
			asExpected++
		}
	}
	if rep.AsExpected != asExpected {
		t.Fatalf("report AsExpected=%d, cells say %d", rep.AsExpected, asExpected)
	}
	b, err := json.Marshal(rep.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"expected"`, `"as_expected"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Fatalf("cell JSON missing %s: %s", key, b)
		}
	}
}

// TestSweepEngineWorkerInvariance pins the simnet guarantee the sweep
// leans on: scenario outcomes are invariant to the engine worker count.
func TestSweepEngineWorkerInvariance(t *testing.T) {
	g := scenario.Grid{
		Scenarios:     []string{"rtbh"},
		EngineWorkers: []int{1, 8},
	}
	rep, err := scenario.SweepOpts(g, 2, scenario.SweepOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells=%d", len(rep.Cells))
	}
	a, b := rep.Cells[0], rep.Cells[1]
	if a.Err != "" || b.Err != "" {
		t.Fatalf("cell errors: %q %q", a.Err, b.Err)
	}
	ja, _ := json.Marshal(a.Result)
	jb, _ := json.Marshal(b.Result)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("engine workers changed the outcome:\nw=1: %s\nw=8: %s", ja, jb)
	}
}

// TestSweepOptsHooks pins the observability satellite: the progress
// callback sees every cell exactly once with a sane done/total, the
// trace records one root span per cell (its provisioning a "build"
// child), and attaching the hooks leaves the report bit-identical to a
// bare sweep.
func TestSweepOptsHooks(t *testing.T) {
	g := scenario.Grid{
		Scenarios: []string{"rtbh", "propagation-distance"},
		Scales:    []string{"tiny"},
		Seeds:     []int64{1, 2},
	}
	bare, err := scenario.SweepOpts(g, 2, scenario.SweepOpt{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var calls int
	seen := map[string]int{}
	tr := obs.NewTrace("sweep-test")
	hooked, err := scenario.SweepOpts(g, 2, scenario.SweepOpt{
		Trace: tr,
		Progress: func(done, total int, c *scenario.Cell, d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			seen[c.Scenario]++
			if done < 1 || done > total || total != 4 || d < 0 {
				t.Errorf("progress(done=%d, total=%d, d=%v)", done, total, d)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || seen["rtbh"] != 2 || seen["propagation-distance"] != 2 {
		t.Fatalf("progress calls=%d seen=%v", calls, seen)
	}
	roots := 0
	for _, r := range tr.Records() {
		if r.Parent != 0 {
			if r.Name != "build" {
				t.Fatalf("child span %+v", r)
			}
			continue
		}
		roots++
		if r.DurUS <= 0 || r.Attrs["scale"] != "tiny" {
			t.Fatalf("span %+v", r)
		}
	}
	if roots != 4 {
		t.Fatalf("root spans=%d want 4", roots)
	}
	b1, _ := json.Marshal(bare)
	b2, _ := json.Marshal(hooked)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("hooks changed the report:\nbare:   %s\nhooked: %s", b1, b2)
	}
}
