package suite

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
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
