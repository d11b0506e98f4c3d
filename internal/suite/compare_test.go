package suite

import (
	"strings"
	"testing"
)

// abSuite is the paired-comparison grid: the detector-relevant
// scenarios with known truth, tiny preset for speed, identical seeds
// on both arms (the pairing invariant).
func abSuite() *Suite {
	return &Suite{
		Name: "ab",
		Defaults: Defaults{
			Scales: []string{"tiny"},
			Seeds:  []int64{1, 2, 3},
		},
		Entries: []Entry{
			{Scenario: "rtbh"},
			{Scenario: "blackhole-squatting"},
			{Scenario: "blackhole-sweep"},
			{Scenario: "dictionary-poisoning"},
		},
	}
}

// TestCompareClassicVsDict reproduces the PR-4 result as a gate: the
// dictionary-backed squat detector replaces the value-pattern rule,
// wins the noise sign test (fewer unrequired alerts), and loses no
// recall — Truth.AnyOf treats either squat detector as satisfying the
// squat-class requirement, so the swap is judged on noise alone.
func TestCompareClassicVsDict(t *testing.T) {
	s := abSuite()
	classic, err := Run(s, Options{Arm: &Arm{
		Name:      "classic",
		Detectors: []string{"blackhole-onset", "community-squat", "prop-distance", "route-leak"},
	}})
	if err != nil {
		t.Fatalf("classic arm: %v", err)
	}
	dict, err := Run(s, Options{Arm: &Arm{
		Name:      "dict",
		Detectors: []string{"blackhole-onset", "dict-squat", "prop-distance", "route-leak"},
		Dict:      true,
	}})
	if err != nil {
		t.Fatalf("dict arm: %v", err)
	}
	ab, err := Compare(classic, dict, ABOptions{})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !ab.Accept {
		t.Fatalf("dict arm rejected: %v", ab.Reasons)
	}
	if ab.Noise.Wins <= ab.Noise.Losses {
		t.Fatalf("dict arm must win the noise sign test: wins=%d losses=%d ties=%d",
			ab.Noise.Wins, ab.Noise.Losses, ab.Noise.Ties)
	}
	for _, r := range ab.Regressions {
		if r.Metric == "recall" {
			t.Fatalf("recall regression at %s: %v -> %v", r.Cell, r.Old, r.New)
		}
	}
	if ab.Pairs != len(classic.Cells) {
		t.Fatalf("Pairs = %d, want %d", ab.Pairs, len(classic.Cells))
	}
}

func TestCompareRejectsMismatchedInputs(t *testing.T) {
	a := &Report{Suite: "x", Cells: []CellResult{{Key: "k"}}}
	b := &Report{Suite: "y", Cells: []CellResult{{Key: "k"}}}
	if _, err := Compare(a, b, ABOptions{}); err == nil || !strings.Contains(err.Error(), "different suites") {
		t.Errorf("different suites: err = %v", err)
	}
	if _, err := Compare(nil, a, ABOptions{}); err == nil {
		t.Error("nil report accepted")
	}
	c := &Report{Suite: "x", Cells: []CellResult{{Key: "k"}, {Key: "k2"}}}
	if _, err := Compare(a, c, ABOptions{}); err == nil || !strings.Contains(err.Error(), "cell count") {
		t.Errorf("cell count: err = %v", err)
	}
	d := &Report{Suite: "x", Cells: []CellResult{{Key: "other"}}}
	if _, err := Compare(a, d, ABOptions{}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing key: err = %v", err)
	}
	e := &Report{Suite: "x", Cells: []CellResult{{Key: "k", Err: "boom"}}}
	if _, err := Compare(a, e, ABOptions{}); err == nil || !strings.Contains(err.Error(), "errored") {
		t.Errorf("errored cell: err = %v", err)
	}
}

// TestCompareDecisionRule exercises the verdict logic on synthetic
// reports: quality loss rejects, noise sign-test loss rejects, and
// tolerances forgive per-cell wobble.
func TestCompareDecisionRule(t *testing.T) {
	mk := func(cells ...CellResult) *Report {
		return &Report{Suite: "s", Cells: cells}
	}
	cell := func(key string, recall, precision float64, noise int) CellResult {
		return CellResult{Key: key, Recall: recall, Precision: precision, NoiseAlerts: noise}
	}

	t.Run("recall loss rejects", func(t *testing.T) {
		old := mk(cell("a", 1, 1, 5))
		new := mk(cell("a", 0.9, 1, 1))
		ab, err := Compare(old, new, ABOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ab.Accept {
			t.Fatal("recall loss accepted")
		}
	})
	t.Run("recall tolerance forgives", func(t *testing.T) {
		old := mk(cell("a", 1, 1, 5))
		new := mk(cell("a", 0.95, 1, 1))
		ab, err := Compare(old, new, ABOptions{RecallTolerance: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if !ab.Accept {
			t.Fatalf("tolerated recall dip rejected: %v", ab.Reasons)
		}
	})
	t.Run("noise sign test rejects", func(t *testing.T) {
		old := mk(cell("a", 1, 1, 5), cell("b", 1, 1, 5), cell("c", 1, 1, 5))
		new := mk(cell("a", 1, 1, 9), cell("b", 1, 1, 9), cell("c", 1, 1, 1))
		ab, err := Compare(old, new, ABOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ab.Accept {
			t.Fatal("net-noisier arm accepted")
		}
	})
	t.Run("net quieter accepts", func(t *testing.T) {
		old := mk(cell("a", 1, 1, 5), cell("b", 1, 1, 5), cell("c", 1, 1, 5))
		new := mk(cell("a", 1, 1, 1), cell("b", 1, 1, 1), cell("c", 1, 1, 9))
		ab, err := Compare(old, new, ABOptions{NoiseTolerance: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !ab.Accept {
			t.Fatalf("net-quieter arm rejected: %v", ab.Reasons)
		}
		if ab.Noise.Wins != 2 || ab.Noise.Losses != 1 {
			t.Fatalf("sign counts = %+v", ab.Noise)
		}
	})
}
