package suite

import (
	"os"
	"strings"
	"testing"

	"bgpworms/internal/scenario"
)

func validSuiteJSON() string {
	return `{
		"name": "t",
		"defaults": {"scales": ["tiny"], "seeds": [1, 2, 3]},
		"entries": [{"scenario": "rtbh", "min_precision": 0.9}]
	}`
}

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(validSuiteJSON()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cells, err := s.grid(&s.Entries[0]).Cells(); err != nil || len(cells) != 3 {
		t.Fatalf("cells = %d (%v), want 3 (one per seed)", len(cells), err)
	}
	if got := s.Scenarios(); len(got) != 1 || got[0] != "rtbh" {
		t.Fatalf("Scenarios = %v", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"name": "t", "bogus": 1, "entries": [{"scenario": "rtbh"}]}`, "unknown field"},
		{"missing name", `{"entries": [{"scenario": "rtbh", "seeds": [1,2,3]}]}`, "missing name"},
		{"no entries", `{"name": "t", "entries": []}`, "no entries"},
		{"unknown scenario", `{"name": "t", "defaults": {"seeds": [1,2,3]}, "entries": [{"scenario": "nope"}]}`, "unknown scenario"},
		{"too few seeds", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1, 2]}]}`, "at least 3"},
		{"no seeds at all", `{"name": "t", "entries": [{"scenario": "rtbh"}]}`, "at least 3"},
		{"duplicate seeds", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1, 1, 2]}]}`, "duplicate seed"},
		{"duplicate scales", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "scales": ["tiny", "tiny"]}]}`, "duplicate scale tiny"},
		{"duplicate default scales", `{"name": "t", "defaults": {"scales": ["small", "tiny", "small"], "seeds": [1,2,3]}, "entries": [{"scenario": "rtbh"}]}`, "duplicate scale small"},
		{"bad scale", `{"name": "t", "defaults": {"seeds": [1,2,3]}, "entries": [{"scenario": "rtbh", "scales": ["galactic"]}]}`, "galactic"},
		// The engines dimension is retired: the key itself is refused,
		// whatever it names.
		{"bad engine", `{"name": "t", "defaults": {"seeds": [1,2,3]}, "entries": [{"scenario": "rtbh", "engines": ["delta"]}]}`, "unknown field"},
		{"bad default scale", `{"name": "t", "defaults": {"scales": ["galactic"], "seeds": [1,2,3]}, "entries": [{"scenario": "rtbh"}]}`, "galactic"},
		{"bad default engine", `{"name": "t", "defaults": {"engines": ["delta"], "seeds": [1,2,3]}, "entries": [{"scenario": "rtbh"}]}`, "unknown field"},
		// No cell ever read a vantage-point count from the suite: every
		// cell runs on scenario.DefaultVPs, and a file that asks for
		// another number is told so.
		// Warm-world reuse follows cell coordinates; the groups that only
		// restated them are gone, and so are their keys.
		{"snapshot groups", `{"name": "t", "snapshot_groups": {"w": {"scale": "tiny"}}, "entries": [{"scenario": "rtbh", "seeds": [1,2,3]}]}`, "unknown field"},
		{"snapshot group", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "snapshot_group": "w"}]}`, "unknown field"},
		// Alert sets are shard-invariant, so no suite sets a shard
		// count: every cell runs two.
		{"default shards", `{"name": "t", "defaults": {"shards": 2, "seeds": [1,2,3]}, "entries": [{"scenario": "rtbh"}]}`, "unknown field"},
		{"unknown community set", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "community_set": "verifed"}]}`, "verifed"},
		{"unknown default community set", `{"name": "t", "defaults": {"community_set": "verifed", "seeds": [1,2,3]}, "entries": [{"scenario": "rtbh"}]}`, "unknown community set"},
		{"default vps", `{"name": "t", "defaults": {"vps": 40, "seeds": [1,2,3]}, "entries": [{"scenario": "rtbh"}]}`, "unknown field"},
		{"precision above one", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "min_precision": 1.5}]}`, "min_precision"},
		{"negative variance", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "max_variance": -0.1}]}`, "max_variance"},
		{"negative noise cap", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "max_noise_alerts": -1}]}`, "max_noise_alerts"},
		{"unknown detector", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "detectors": {"nope": {"must_fire": true}}}]}`, "unknown detector"},
		{"contradictory gate", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "detectors": {"blackhole-onset": {"must_fire": true, "max_fired": 0}}}]}`, "never pass"},
		{"dict gate range", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "dict": {"min_precision": 2}}]}`, "outside [0,1]"},
		{"unknown param", `{"name": "t", "entries": [{"scenario": "rtbh", "seeds": [1,2,3], "params": {"warp_factor": "9"}}]}`, "warp_factor"},
		{"dict pair without dict", `{"name": "t", "arm": {"detectors": ["dict-squat"]}, "entries": [{"scenario": "rtbh", "seeds": [1,2,3]}]}`, "needs a dictionary"},
		{"unknown arm detector", `{"name": "t", "arm": {"detectors": ["nope"]}, "entries": [{"scenario": "rtbh", "seeds": [1,2,3]}]}`, "unknown detector"},
		{"trailing data", validSuiteJSON() + `{"again": true}`, "trailing data"},
		{"not json", `release gates ahoy`, "suite:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Load reads and parses a suite file the way suiterun does.
func Load(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// TestCheckedInSuitesLoad keeps the shipped suite files parseable —
// the CI gate runs them, so a malformed edit must fail here first.
func TestCheckedInSuitesLoad(t *testing.T) {
	for _, path := range []string{"../../suites/release.json", "../../suites/detectors.json"} {
		if _, err := Load(path); err != nil {
			t.Errorf("Load(%s): %v", path, err)
		}
	}
}

// TestReleaseSuiteCoversRegistry is the coverage invariant: every
// registered attack scenario must appear in suites/release.json, so a
// new scenario cannot land without a release gate. The failure lists
// exactly the missing names.
func TestReleaseSuiteCoversRegistry(t *testing.T) {
	s, err := Load("../../suites/release.json")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	covered := map[string]bool{}
	for _, name := range s.Scenarios() {
		covered[name] = true
	}
	var missing []string
	for _, name := range scenario.Names() {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("scenarios registered but absent from suites/release.json: %v\n"+
			"add an entry (with pinned seeds and thresholds) for each", missing)
	}
}

func TestArmLabel(t *testing.T) {
	cases := []struct {
		arm  *Arm
		want string
	}{
		{nil, "default"},
		{&Arm{}, "custom"},
		{&Arm{Dict: true}, "dict"},
		{&Arm{Name: "pr-123", Dict: true}, "pr-123"},
	}
	for _, tc := range cases {
		if got := tc.arm.label(); got != tc.want {
			t.Errorf("label(%+v) = %q, want %q", tc.arm, got, tc.want)
		}
	}
}

func TestMaxVarianceResolution(t *testing.T) {
	v := 0.5
	s := &Suite{}
	if got := s.maxVariance(&Entry{}); got != DefaultMaxVariance {
		t.Errorf("default bound = %v", got)
	}
	s.Defaults.MaxVariance = &v
	if got := s.maxVariance(&Entry{}); got != 0.5 {
		t.Errorf("suite bound = %v", got)
	}
	w := 0.25
	e := &Entry{Thresholds: scenario.Thresholds{MaxVariance: &w}}
	if got := s.maxVariance(e); got != 0.25 {
		t.Errorf("entry bound = %v", got)
	}
}
