package suite

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bgpworms/internal/obs"
	"bgpworms/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files from the current run")

// tinySuite is the pinned suite the golden and determinism tests run:
// small enough to execute in well under a second, wide enough to cover
// grouping, both gate kinds, and the confusion matrix.
func tinySuite(t *testing.T) *Suite {
	t.Helper()
	s, err := Load("testdata/golden/tiny_suite.json")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

func marshalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(data, '\n')
}

// TestGoldenReport pins the exact bytes of suite_report.json for the
// tiny suites: the default arm, and the dictionary arm whose gated cells
// score inference from the same replay the detectors see. Run
// `go test ./internal/suite -run Golden -update` after an intentional
// format or metric change.
func TestGoldenReport(t *testing.T) {
	for _, c := range []struct{ suite, report string }{
		{"tiny_suite.json", "suite_report.json"},
		{"tiny_dict_suite.json", "dict_suite_report.json"},
	} {
		t.Run(c.suite, func(t *testing.T) {
			s, err := Load(filepath.Join("testdata", "golden", c.suite))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			rep, err := Run(s, Options{Workers: 2})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := marshalReport(t, rep)
			golden := filepath.Join("testdata", "golden", c.report)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from golden file %s\n"+
					"re-run with -update if the change is intentional\ngot:\n%s", c.report, golden, got)
			}
			if !rep.Pass {
				t.Fatalf("%s must pass its own gates: %v", c.suite, rep.Failures)
			}
		})
	}
}

// TestRunDeterministic asserts the report is byte-identical across
// harness worker counts — the property that makes suite_report.json
// diffable and the A/B pairing sound.
func TestRunDeterministic(t *testing.T) {
	s := tinySuite(t)
	var first []byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := Run(s, Options{Workers: workers})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		got := marshalReport(t, rep)
		if first == nil {
			first = got
			continue
		}
		if !bytes.Equal(first, got) {
			t.Fatalf("report bytes differ between workers=1 and workers=%d", workers)
		}
	}
}

func TestRunGateBreaches(t *testing.T) {
	zero := 0
	one := 1.0
	s := &Suite{
		Name: "breaches",
		Defaults: Defaults{
			Scales: []string{"tiny"},
			Seeds:  []int64{1, 2, 3},
		},
		Entries: []Entry{{
			Scenario: "rtbh",
			Detectors: map[string]DetectorGate{
				"route-leak":      {MustFire: true},  // never fires on rtbh
				"blackhole-onset": {MaxFired: &zero}, // always fires on rtbh
			},
		}},
	}
	s.Entries[0].MaxNoiseAlerts = &zero // noise is never zero here
	s.Entries[0].MinRecall = &one
	rep, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Pass {
		t.Fatal("suite with impossible gates passed")
	}
	if rep.Failed != 3 {
		t.Fatalf("Failed = %d, want every cell", rep.Failed)
	}
	wants := []string{"route-leak never fired", "blackhole-onset fired", "noise alerts"}
	for _, want := range wants {
		found := false
		for _, f := range rep.Failures {
			if bytes.Contains([]byte(f), []byte(want)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no failure mentions %q in %v", want, rep.Failures)
		}
	}
}

// TestRunExpectOverride flips the Table-3 expectation and checks the
// outcome gate follows the override rather than the registry.
func TestRunExpectOverride(t *testing.T) {
	no := false
	s := &Suite{
		Name: "override",
		Defaults: Defaults{
			Scales: []string{"tiny"},
			Seeds:  []int64{1, 2, 3},
		},
		Entries: []Entry{{Scenario: "rtbh", Expect: &no}},
	}
	rep, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Pass {
		t.Fatal("expect=false on a succeeding scenario must breach the outcome gate")
	}
	if rep.AsExpected != 0 {
		t.Fatalf("AsExpected = %d, want 0", rep.AsExpected)
	}
}

// TestEntryParamsReachCells pins that an entry's params reach every cell
// it expands to: rtbh with hijack=true runs the hijack variant, graded
// against the scenario's hijack expectation, whose announcement the
// route-leak detector sees in every cell where the plain entry's cells
// show none.
func TestEntryParamsReachCells(t *testing.T) {
	zero := 0
	s := &Suite{
		Name:     "params",
		Defaults: Defaults{Seeds: []int64{1, 2, 3}},
		Entries: []Entry{
			{Scenario: "rtbh", Detectors: map[string]DetectorGate{"route-leak": {MaxFired: &zero}}},
			{Scenario: "rtbh", Params: map[string]string{"hijack": "true"},
				Detectors: map[string]DetectorGate{"route-leak": {MustFire: true}}},
		},
	}
	rep, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Pass || rep.Ran != 6 {
		t.Fatalf("ran %d cells, failures %v", rep.Ran, rep.Failures)
	}
	sc, _ := scenario.Get("rtbh")
	for _, c := range rep.Cells[3:] {
		if c.Expected != sc.Expected.Hijack || !c.AsExpected {
			t.Fatalf("cell %s graded expected=%v as-expected=%v, want the hijack expectation %v",
				c.Key, c.Expected, c.AsExpected, sc.Expected.Hijack)
		}
	}
}

// TestDictArmBuildsOneWorldPerKey pins that the dictionary arm trains on
// the worlds the cells fork: a dictionary-arm run builds exactly the
// worlds it reports (gen_build_seconds counts every build), none more
// for training.
func TestDictArmBuildsOneWorldPerKey(t *testing.T) {
	s, err := Load(filepath.Join("testdata", "golden", "tiny_dict_suite.json"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	before := worldBuilds(t)
	rep, err := Run(s, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := worldBuilds(t) - before; rep.SnapshotBuilds == 0 || got != rep.SnapshotBuilds {
		t.Fatalf("the run built %d worlds and reports %d snapshot builds", got, rep.SnapshotBuilds)
	}
}

// TestDictArmTrainsWorldManagingCells: a scenario that builds its own
// worlds forks no shared one, yet the dictionary arm trains on the world
// the cell's cache holds for its coordinates.
func TestDictArmTrainsWorldManagingCells(t *testing.T) {
	s := &Suite{
		Name:    "managed",
		Arm:     &Arm{Dict: true},
		Entries: []Entry{{Scenario: "hygiene-filtering", Seeds: []int64{0, 1, 2}}},
	}
	rep, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Errored != 0 || rep.SnapshotBuilds != 3 {
		t.Fatalf("%d cells errored on %d trained worlds: %v", rep.Errored, rep.SnapshotBuilds, rep.Failures)
	}
}

// worldBuilds reads the process's gen_build_seconds count off
// obs.Default's Prometheus text.
func worldBuilds(t *testing.T) int {
	t.Helper()
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "gen_build_seconds_count "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

func TestRunRejectsInvalidSuite(t *testing.T) {
	if _, err := Run(&Suite{Name: "empty"}, Options{}); err == nil {
		t.Fatal("Run accepted an invalid suite")
	}
}

func TestAggregate(t *testing.T) {
	a := aggregate([]float64{1, 2, 3})
	if a.Mean != 2 || a.Min != 1 || a.Max != 3 {
		t.Fatalf("aggregate = %+v", a)
	}
	if want := 2.0 / 3.0; a.Variance != want {
		t.Fatalf("variance = %v, want %v", a.Variance, want)
	}
}
