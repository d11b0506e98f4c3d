package main

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"bgpworms/bench/stats"
)

// compareSets judges candidate against baseline, metric by metric and
// workload by workload, by the rule the benchmark fixes: the candidate's
// median may be worse than the baseline's by at most the metric's bound
// on that workload, any failed operation is a breach whatever the timings
// say, and so is a metric the baseline reports and the candidate does not
// (a crashed run, a dropped metric, a file holding half a set). It prints
// both medians, both quartile pairs, the relative difference and — where
// both sets ran the same seeds — the median and quartiles of the per-seed
// differences, which is what two interleaved sets resolve best. Smoke
// results never compare, and neither does an empty baseline.
func compareSets(w io.Writer, baseline, candidate []*Result) bool {
	type key struct{ workload, metric string }
	type column struct {
		vals   []float64
		bySeed map[int64]float64 // nil once a seed repeats: no pairing
	}
	collect := func(rs []*Result) (map[key]*column, map[key]Metric, map[string]int64) {
		cols, defs, failed := map[key]*column{}, map[key]Metric{}, map[string]int64{}
		for _, r := range rs {
			if r.Traced {
				continue
			}
			failed[r.Workload] += r.Failed
			for _, m := range r.Metrics {
				k := key{r.Workload, m.Name}
				c := cols[k]
				if c == nil {
					c = &column{bySeed: map[int64]float64{}}
					// The bound is this harness's, not the one in force when
					// the file was written.
					if d, ok := endToEnd[m.Name]; ok {
						m.Bound = d.bound(r.Workload)
					}
					cols[k], defs[k] = c, m
				}
				c.vals = append(c.vals, m.Value)
				if _, dup := c.bySeed[r.Seed]; dup || c.bySeed == nil {
					c.bySeed = nil
				} else {
					c.bySeed[r.Seed] = m.Value
				}
			}
		}
		return cols, defs, failed
	}
	for _, r := range slices.Concat(baseline, candidate) {
		if r.Smoke {
			fmt.Fprintln(w, "smoke results are not comparable")
			return false
		}
	}
	a, defs, failedA := collect(baseline)
	b, _, failedB := collect(candidate)
	if len(a) == 0 {
		fmt.Fprintln(w, "the baseline holds no untraced result: nothing was compared")
		return false
	}
	keys := make([]key, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	order := map[string]int{}
	for i, wl := range workloads {
		order[wl] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return order[keys[i].workload] < order[keys[j].workload]
		}
		return keys[i].metric < keys[j].metric
	})

	ok := true
	fmt.Fprintf(w, "%-15s %-26s %5s %12s %25s %12s %25s %8s %22s %6s  %s\n",
		"workload", "metric", "unit", "median A", "quartiles A", "median B", "quartiles B", "B vs A", "per seed: median, IQR", "bound", "verdict")
	for _, k := range keys {
		d, ca, cb := defs[k], a[k], b[k]
		if cb == nil {
			ok = false
			fmt.Fprintf(w, "%-15s %-26s %5s %12.5g %25s %12s %25s %8s %22s %6g  BREACH (the candidate did not report it)\n",
				k.workload, k.metric, d.Unit, stats.Median(ca.vals), quartiles(ca.vals), "-", "-", "-", "-", d.Bound)
			continue
		}
		ma, mb := stats.Median(ca.vals), stats.Median(cb.vals)
		// worse is how far B moved in the bad direction, as a share of A.
		worse := 0.0
		if ma != 0 {
			worse = (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
		}
		verdict := "ok"
		switch {
		case k.metric == "failed_ops_share":
			if mb > 0 || failedB[k.workload] > 0 {
				verdict = "BREACH (operations failed)"
			}
		case d.Bound > 0 && worse > d.Bound:
			verdict = "BREACH"
		case d.Bound > 0 && spread(ca.vals) > d.Bound:
			verdict = "ok (baseline spread exceeds bound: unresolved)"
		}
		if verdict[0] == 'B' {
			ok = false
		}
		fmt.Fprintf(w, "%-15s %-26s %5s %12.5g %25s %12.5g %25s %+7.1f%% %22s %6g  %s\n",
			k.workload, k.metric, d.Unit, ma, quartiles(ca.vals), mb, quartiles(cb.vals), 100*(mb-ma)/nonzero(ma), paired(ca.bySeed, cb.bySeed), d.Bound, verdict)
	}
	for _, wl := range workloads {
		if failedA[wl] > 0 {
			fmt.Fprintf(w, "note: baseline %s had %d failed operations\n", wl, failedA[wl])
		}
	}
	return ok
}

// paired summarizes (B-A)/A seed by seed: two runs of one seed send the
// same bytes, so what is left is the machine and the change.
func paired(a, b map[int64]float64) string {
	if len(a) < 2 || len(a) != len(b) {
		return "-"
	}
	var rel []float64
	for seed, va := range a {
		vb, ok := b[seed]
		if !ok {
			return "-"
		}
		rel = append(rel, 100*(vb-va)/nonzero(va))
	}
	q1, q3 := stats.Quartiles(rel)
	return fmt.Sprintf("%+.1f%%, %.1f%%", stats.Median(rel), q3-q1)
}

// spread is the interquartile range as a share of the median — the
// steadiness figure the benchmark contract is accepted on.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := stats.Quartiles(xs)
	return (q3 - q1) / nonzero(stats.Median(xs))
}

func quartiles(xs []float64) string {
	if len(xs) < 2 {
		return "-"
	}
	q1, q3 := stats.Quartiles(xs)
	return fmt.Sprintf("%.5g..%.5g (%.1f%%)", q1, q3, 100*spread(xs))
}

func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}
