package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload, and one traced run, shrunken: it keeps
// the harness compiling against the packages it calls and keeps its
// correctness checks — output hashes, the reference engine, the merged
// /alerts identity, recovery, process clean-up — live in tier 1. Its
// numbers mean nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real binaries; skipped with -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	p := plan{seconds: 5, smoke: true}
	run := func(workload string, traced bool) {
		t.Helper()
		var table bytes.Buffer
		res, err := runWorkload(root, work, workload, 1, p, traced, &table)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if !res.Correct || !res.Smoke {
			t.Fatalf("%s: correct=%v smoke=%v\n%s", workload, res.Correct, res.Smoke, table.String())
		}
		if _, err := res.contractLine(); err != nil {
			t.Fatalf("%s: %v\n%s", workload, err, table.String())
		}
	}
	for _, w := range workloads {
		run(w, false)
	}
	run("fleet-paced", true)

	// Every run removed its temp tree and left no child behind.
	left, _ := filepath.Glob(filepath.Join(work, "tmp", "run-*"))
	if len(left) > 0 {
		t.Errorf("temp trees left behind: %v", left)
	}
}

// TestBenchmarkJSONMatchesTheHarness pins BENCHMARK.json to the tables
// the harness prints from, so neither can drift alone.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var strict struct {
		Command    []string          `json:"command"`
		Paths      []string          `json:"paths"`
		RunSeconds int               `json:"run_seconds"`
		Workloads  []json.RawMessage `json:"workloads"`
		EndToEnd   []json.RawMessage `json:"end_to_end"`
		PerLayer   []json.RawMessage `json:"per_layer"`
	}
	if err := dec.Decode(&strict); err != nil {
		t.Fatalf("BENCHMARK.json has keys the contract does not: %v", err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), harness has %q", i, w.Name, len(w.Why), workloads[i])
		}
	}
	if len(b.EndToEnd) != len(contract) {
		t.Fatalf("%d end-to-end metrics listed, harness prints %d", len(b.EndToEnd), len(contract))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[contract[i]]
		if m.Name != contract[i] || m.Unit != d.Unit || m.Better != d.Better || m.Bound == nil || *m.Bound != contractBound {
			t.Errorf("end_to_end[%d] = %+v, harness has %s %+v with bound %g", i, m, contract[i], d, contractBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, harness prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		l := perLayer[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better || m.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, l)
		}
	}
}

func result(workload string, seed, failed int64, vals map[string]float64) *Result {
	r := &Result{Workload: workload, Seed: seed, Failed: failed}
	for name, v := range vals {
		r.set(name, v)
	}
	return r
}

// TestEveryWorkloadBindsTheContract: each contract metric is either
// measured under its own name or bound, through response, to exactly one
// metric the harness defines with the same direction.
func TestEveryWorkloadBindsTheContract(t *testing.T) {
	for _, w := range workloads {
		src, ok := response[w]
		d, defined := endToEnd[src.metric]
		if !ok || !defined || src.seconds(1) <= 0 {
			t.Errorf("%s: response_s bound to %q, which the harness does not define", w, src.metric)
		}
		// A rate turned into seconds must turn its direction with it.
		if rising := src.seconds(2) > src.seconds(1); rising != (d.Better == "lower") {
			t.Errorf("%s: %s is better %s but its response_s moves the other way", w, src.metric, d.Better)
		}
	}
}

func TestCompareAppliesEachMetricsBound(t *testing.T) {
	base := []*Result{
		result("world-cold", 1, 0, map[string]float64{"wall_s": 10, "cpu_s": 20}),
		result("world-cold", 2, 0, map[string]float64{"wall_s": 10.2, "cpu_s": 19.6}),
		result("serve-saturate", 1, 0, map[string]float64{"ingest_events_per_s": 100}),
	}
	// Candidates sit at 0.6x and 1.4x the bound beyond the baseline median.
	wb, rb := endToEnd["wall_s"].bound("world-cold"), endToEnd["ingest_events_per_s"].bound("serve-saturate")
	cand := func(wall, rate float64) []*Result {
		return []*Result{
			result("world-cold", 1, 0, map[string]float64{"wall_s": 10.1 * (1 + wall*wb), "cpu_s": 19.8}),
			result("serve-saturate", 1, 0, map[string]float64{"ingest_events_per_s": 100 * (1 - rate*rb)}),
		}
	}
	broken := []*Result{result("world-cold", 1, 3, map[string]float64{"wall_s": 5, "cpu_s": 5, "failed_ops_share": 0.1}), cand(0, 0)[1]}
	for name, c := range map[string]struct {
		cand []*Result
		ok   bool
	}{
		"within":              {cand(0.6, 0.6), true},
		"slower":              {cand(1.4, 0), false},
		"less work":           {cand(0, 1.4), false},
		"faster":              {cand(-2, -2), true},
		"failed ops":          {broken, false},
		"metric not reported": {[]*Result{result("world-cold", 1, 0, map[string]float64{"wall_s": 10}), cand(0, 0)[1]}, false},
		"workload not run":    {cand(0, 0)[:1], false},
		"nothing run":         {nil, false},
	} {
		b := base
		if name == "failed ops" {
			b = append(b, result("world-cold", 3, 0, map[string]float64{"failed_ops_share": 0}))
		}
		var out bytes.Buffer
		if got := compareSets(&out, b, c.cand); got != c.ok {
			t.Errorf("%s: compareSets = %v, want %v\n%s", name, got, c.ok, out.String())
		}
	}
	if compareSets(io.Discard, nil, base) {
		t.Error("an empty baseline compared nothing and must not pass")
	}
	smoke := []*Result{{Workload: "world-cold", Smoke: true}}
	if compareSets(io.Discard, smoke, smoke) {
		t.Error("smoke results must not compare")
	}
}

// TestRunRejectsAnUnknownWorkloadBeforeRunning: -aa over a misspelt
// workload used to compare two empty sets and exit 0.
func TestRunRejectsAnUnknownWorkloadBeforeRunning(t *testing.T) {
	for _, o := range []options{{workload: "wrold-cold", seconds: 20, aa: true}, {workload: "wrold-cold", seconds: 20}} {
		if err := run(o, nil); err == nil || !strings.Contains(err.Error(), "unknown workload") {
			t.Errorf("run(%+v) = %v, want an unknown-workload error", o, err)
		}
	}
}
