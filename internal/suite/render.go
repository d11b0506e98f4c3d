package suite

import (
	"fmt"
	"sort"
	"strings"

	"bgpworms/internal/stats"
)

// Render renders the report as group and confusion-matrix tables plus
// the failure list — the human form of suite_report.json.
func Render(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "suite %s · arm %s · detectors: %s\n\n",
		r.Suite, r.Arm, strings.Join(r.Detectors, ", "))

	t := stats.NewTable("Scenario", "Scale", "Seeds", "P mean", "P min", "R mean", "R min", "Var(P)", "Noise", "Gate")
	for i := range r.Groups {
		g := &r.Groups[i]
		gate := "pass"
		if len(g.Failures) > 0 {
			gate = "FAIL"
		}
		if hasError(r, g) {
			gate = "ERROR"
		}
		t.Row(g.Scenario, g.Scale, len(g.Seeds),
			fmt.Sprintf("%.3f", g.Precision.Mean), fmt.Sprintf("%.3f", g.Precision.Min),
			fmt.Sprintf("%.3f", g.Recall.Mean), fmt.Sprintf("%.3f", g.Recall.Min),
			fmt.Sprintf("%.5f", g.Precision.Variance),
			fmt.Sprintf("%.1f", g.Noise.Mean), gate)
	}
	b.WriteString(t.String())

	b.WriteString("\nDetector × scenario alert counts (confusion matrix):\n")
	b.WriteString(RenderMatrix(r.Matrix))

	if len(r.Failures) > 0 {
		b.WriteString("\nGate breaches:\n")
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "  - %s\n", f)
		}
	}
	fmt.Fprintf(&b, "\ncells=%d passed=%d failed=%d errored=%d as-expected=%d gate=%s\n",
		r.Ran, r.Passed, r.Failed, r.Errored, r.AsExpected, passStr(r.Pass))
	return b.String()
}

func hasError(r *Report, g *GroupResult) bool {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Err != "" && c.Scenario == g.Scenario && c.Scale == g.Scale &&
			c.CommunitySet == g.CommunitySet {
			return true
		}
	}
	return false
}

func passStr(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// RenderMatrix renders the detector-vs-scenario matrix, scenarios as
// rows and detectors as columns, both sorted.
func RenderMatrix(m map[string]map[string]int) string {
	scenarios := make([]string, 0, len(m))
	detSet := map[string]bool{}
	for sc, row := range m {
		scenarios = append(scenarios, sc)
		for det := range row {
			detSet[det] = true
		}
	}
	sort.Strings(scenarios)
	dets := make([]string, 0, len(detSet))
	for det := range detSet {
		dets = append(dets, det)
	}
	sort.Strings(dets)

	header := append([]string{"Scenario"}, dets...)
	t := stats.NewTable(header...)
	for _, sc := range scenarios {
		row := make([]any, 0, len(dets)+1)
		row = append(row, sc)
		for _, det := range dets {
			row = append(row, m[sc][det])
		}
		t.Row(row...)
	}
	return t.String()
}

// RenderAB renders the paired comparison verdict.
func RenderAB(ab *ABReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "suite %s · A/B: %s (old) vs %s (new) · %d paired cells\n\n",
		ab.Suite, ab.OldArm, ab.NewArm, ab.Pairs)
	t := stats.NewTable("Metric", "Wins", "Losses", "Ties", "Old mean", "New mean")
	t.Row("recall", ab.Recall.Wins, ab.Recall.Losses, ab.Recall.Ties,
		fmt.Sprintf("%.4f", ab.Recall.OldMean), fmt.Sprintf("%.4f", ab.Recall.NewMean))
	t.Row("precision", ab.Precision.Wins, ab.Precision.Losses, ab.Precision.Ties,
		fmt.Sprintf("%.4f", ab.Precision.OldMean), fmt.Sprintf("%.4f", ab.Precision.NewMean))
	t.Row("noise alerts", ab.Noise.Wins, ab.Noise.Losses, ab.Noise.Ties,
		fmt.Sprintf("%.1f", ab.Noise.OldMean), fmt.Sprintf("%.1f", ab.Noise.NewMean))
	b.WriteString(t.String())
	if len(ab.Regressions) > 0 {
		b.WriteString("\nPer-cell regressions beyond tolerance:\n")
		for _, r := range ab.Regressions {
			fmt.Fprintf(&b, "  - %s: %s %.4f -> %.4f\n", r.Cell, r.Metric, r.Old, r.New)
		}
	}
	b.WriteString("\n")
	for _, reason := range ab.Reasons {
		fmt.Fprintf(&b, "%s\n", reason)
	}
	fmt.Fprintf(&b, "verdict: %s\n", map[bool]string{true: "ACCEPT", false: "REJECT"}[ab.Accept])
	return b.String()
}
